package partition

import (
	"fmt"

	"securecache/internal/hashing"
)

// MemberRing maps keys onto an explicit member-ID list through a
// consistent-hash ring whose virtual points are derived from the member
// IDs themselves (not from dense indices). That makes it the stable
// mapping for elastic membership: a ±1 member view change moves only the
// arcs the joining/draining member owns — ~d/n of replica groups —
// because every other member's ring points are untouched. Compare
// Remap(Hash), where the modular draw reshuffles nearly every group.
//
// Placement is keyed by the secret seed exactly like Ring, so the
// mapping stays opaque without the seed and a seed rotation still
// reshuffles every group. Nodes() returns the member COUNT (the n of
// c* and the Eq. 10 bound), and Group returns global member IDs — the
// same contract relaxation Remap documents.
type MemberRing struct {
	d    int
	ids  []int
	ring *hashing.Ring
}

// NewMemberRing builds a ring partitioner over the given member IDs with
// replication d, keyed by seed. vnodes controls placement uniformity
// (0 = default 128). The IDs must be distinct and non-negative.
func NewMemberRing(ids []int, d int, seed uint64, vnodes int) *MemberRing {
	validate(len(ids), d)
	var opts []hashing.RingOption
	if vnodes > 0 {
		opts = append(opts, hashing.WithVirtualNodes(vnodes))
	}
	r := hashing.NewRing(seed, opts...)
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if id < 0 {
			panic(fmt.Sprintf("partition: negative member ID %d", id))
		}
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("partition: duplicate member ID %d", id))
		}
		seen[id] = struct{}{}
		r.Add(id)
	}
	r.Finalize() // one sort; lookups are then read-only and concurrency-safe
	return &MemberRing{d: d, ids: append([]int(nil), ids...), ring: r}
}

// Nodes returns the member count n.
func (m *MemberRing) Nodes() int { return len(m.ids) }

// Replicas returns d.
func (m *MemberRing) Replicas() int { return m.d }

// IDs returns a copy of the member ID list.
func (m *MemberRing) IDs() []int { return append([]int(nil), m.ids...) }

// Group returns the key's replica group as member IDs.
func (m *MemberRing) Group(key uint64) []int { return m.ring.GetNUint(key, m.d) }

// GroupAppend appends the key's replica group (as member IDs) to dst.
func (m *MemberRing) GroupAppend(dst []int, key uint64) []int {
	return append(dst, m.ring.GetNUint(key, m.d)...)
}

var _ Partitioner = (*MemberRing)(nil)
