// Package partition maps keys to replica groups: the d distinct back-end
// nodes that can serve each key.
//
// The paper's security model requires the mapping to be (1) stable — the
// same key always maps to the same group, since moving service between
// nodes is expensive — and (2) opaque — unpredictable to a client that
// does not know the partitioner's secret seed. All partitioners here take
// the seed at construction and never expose it.
//
// Three interchangeable implementations are provided, and the partitioner
// ablation in internal/experiments confirms the paper's results do not
// depend on which one is used:
//
//   - Hash: d pseudo-random distinct nodes derived from a keyed hash
//     stream. Cheapest; the default for simulations.
//   - Ring: walk a consistent-hash ring, taking the first d distinct
//     owners. What memcached/Dynamo-style systems deploy.
//   - Rendezvous: the d highest-random-weight nodes. Perfectly uniform.
package partition

import (
	"fmt"

	"securecache/internal/hashing"
	"securecache/internal/xrand"
)

// Partitioner maps an integer key to its replica group. Implementations
// are immutable after construction and safe for concurrent use.
type Partitioner interface {
	// Nodes returns the total number of back-end nodes n.
	Nodes() int
	// Replicas returns the replication factor d.
	Replicas() int
	// Group returns the key's replica group: d distinct node IDs in
	// [0, Nodes()). The result is deterministic per key. Callers must not
	// modify the returned slice if they plan to call Group again; use
	// GroupAppend for an owned copy.
	Group(key uint64) []int
	// GroupAppend appends the key's replica group to dst and returns it.
	GroupAppend(dst []int, key uint64) []int
}

// validate enforces the shared constructor contract.
func validate(n, d int) {
	if n <= 0 {
		panic(fmt.Sprintf("partition: node count %d must be positive", n))
	}
	if d <= 0 || d > n {
		panic(fmt.Sprintf("partition: replication factor %d must be in [1, n=%d]", d, n))
	}
}

// Hash derives each key's group from a per-key deterministic random
// stream: seed the stream with the keyed hash of the key, then draw d
// distinct nodes. Group(k) costs O(d) expected time.
type Hash struct {
	n, d int
	seed uint64
}

// NewHash returns a hash partitioner over n nodes with replication d,
// keyed by seed.
func NewHash(n, d int, seed uint64) *Hash {
	validate(n, d)
	return &Hash{n: n, d: d, seed: seed}
}

// Nodes returns n.
func (h *Hash) Nodes() int { return h.n }

// Replicas returns d.
func (h *Hash) Replicas() int { return h.d }

// Group returns the key's replica group.
func (h *Hash) Group(key uint64) []int {
	return h.GroupAppend(make([]int, 0, h.d), key)
}

// GroupAppend appends the key's replica group to dst.
func (h *Hash) GroupAppend(dst []int, key uint64) []int {
	// A per-key splitmix stream seeded by the keyed hash gives an
	// unbounded supply of deterministic draws for rejection sampling.
	stream := xrand.NewSplitMix64(hashing.Hash64Uint(key, h.seed))
	start := len(dst)
	for len(dst)-start < h.d {
		cand := int(stream.Uint64() % uint64(h.n))
		dup := false
		for _, v := range dst[start:] {
			if v == cand {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand)
		}
	}
	return dst
}

// Ring maps keys through a consistent-hash ring: the group is the first d
// distinct nodes clockwise from the key's position.
type Ring struct {
	n, d int
	ring *hashing.Ring
}

// NewRing returns a ring partitioner over n nodes with replication d,
// keyed by seed. vnodes controls placement uniformity (0 = default 128).
func NewRing(n, d int, seed uint64, vnodes int) *Ring {
	validate(n, d)
	var opts []hashing.RingOption
	if vnodes > 0 {
		opts = append(opts, hashing.WithVirtualNodes(vnodes))
	}
	r := hashing.NewRing(seed, opts...)
	for i := 0; i < n; i++ {
		r.Add(i)
	}
	r.Finalize() // one sort for the whole batch; lookups are then read-only
	return &Ring{n: n, d: d, ring: r}
}

// Nodes returns n.
func (r *Ring) Nodes() int { return r.n }

// Replicas returns d.
func (r *Ring) Replicas() int { return r.d }

// Group returns the key's replica group.
func (r *Ring) Group(key uint64) []int { return r.ring.GetNUint(key, r.d) }

// GroupAppend appends the key's replica group to dst.
func (r *Ring) GroupAppend(dst []int, key uint64) []int {
	return append(dst, r.ring.GetNUint(key, r.d)...)
}

// Rendezvous maps keys through highest-random-weight hashing: the group is
// the d nodes with the highest keyed weights.
type Rendezvous struct {
	n, d int
	hrw  *hashing.Rendezvous
}

// NewRendezvous returns an HRW partitioner over n nodes with replication
// d, keyed by seed.
func NewRendezvous(n, d int, seed uint64) *Rendezvous {
	validate(n, d)
	return &Rendezvous{n: n, d: d, hrw: hashing.NewRendezvous(n, seed)}
}

// Nodes returns n.
func (r *Rendezvous) Nodes() int { return r.n }

// Replicas returns d.
func (r *Rendezvous) Replicas() int { return r.d }

// Group returns the key's replica group.
func (r *Rendezvous) Group(key uint64) []int { return r.hrw.GetNUint(key, r.d) }

// GroupAppend appends the key's replica group to dst.
func (r *Rendezvous) GroupAppend(dst []int, key uint64) []int {
	return append(dst, r.hrw.GetNUint(key, r.d)...)
}

// Kind names a partitioner implementation, for configs and flags.
type Kind string

// Supported partitioner kinds.
const (
	KindHash       Kind = "hash"
	KindRing       Kind = "ring"
	KindRendezvous Kind = "rendezvous"
)

// New constructs a partitioner of the given kind. It returns an error for
// unknown kinds (flag values come from users).
func New(kind Kind, n, d int, seed uint64) (Partitioner, error) {
	switch kind {
	case KindHash, "":
		return NewHash(n, d, seed), nil
	case KindRing:
		return NewRing(n, d, seed, 0), nil
	case KindRendezvous:
		return NewRendezvous(n, d, seed), nil
	default:
		return nil, fmt.Errorf("partition: unknown partitioner kind %q", kind)
	}
}
