// Package kvstore is a real, networked implementation of the paper's
// architecture: back-end nodes storing a randomly partitioned key space
// with replication, behind a front-end server that owns a small
// popularity-based cache and the secret partition seed.
//
// The simulation packages validate the theory against the abstract model;
// kvstore demonstrates the same provisioning rule end-to-end over TCP —
// an adversarial load generator (cmd/kvload) really does saturate one
// back-end node when the front-end cache is under-provisioned, and really
// cannot once the cache reaches c* entries.
package kvstore

import (
	"sort"
	"sync"
	"sync/atomic"

	"securecache/internal/hashing"
	"securecache/internal/proto"
	"securecache/internal/wal"
)

// storeShards is the number of independently locked shards in a Store.
// 16 shards keep lock contention negligible at the request rates the
// loopback benchmarks reach.
const storeShards = 16

// Store is a sharded in-memory key-value storage engine: the "disk" of a
// back-end node. Each entry is tagged with the partition epoch it was
// written under (0 for pre-rotation data), which is what lets the
// rotation migrator find un-migrated entries and apply guarded copies
// without a read-modify-write race, and with a logical version (0 for
// unversioned writes), which is what lets diverged replica copies be
// reconciled highest-version-wins. Deletes carrying a version leave a
// tombstone — a versioned "this key is dead" record — so a replica that
// missed the delete can never resurrect the key through repair. Store is
// safe for concurrent use.
type Store struct {
	shards [storeShards]storeShard
	// log, when attached, makes the store write-through durable: every
	// applied mutation is appended to the write-ahead log under the shard
	// lock, *after* its guard checks pass and *before* the map changes.
	// Logging only applied writes is what keeps replay trivial — the log
	// holds exactly the mutations that won their guard race, in the order
	// they won it, so replay is unconditional last-wins with no version
	// arithmetic re-run. Atomic because a node may attach its log while
	// its listener already runs: the load orders every append after the
	// log's construction.
	log atomic.Pointer[wal.Log]
}

type entry struct {
	val   []byte
	epoch uint32
	ver   uint64
	tomb  bool
}

type storeShard struct {
	mu sync.RWMutex
	m  map[string]entry
	// tombs counts the tombstoned entries in m, maintained by every
	// mutation, so Len and TombCount are O(shards) instead of a full
	// walk of the keyspace under the locks.
	tombs int
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

func (s *Store) shard(key string) *storeShard {
	return &s.shards[hashing.Hash64(key, 0x5709)%storeShards]
}

// Get returns a copy of the value and whether the key exists (tombstones
// read as absent).
func (s *Store) Get(key string) ([]byte, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if !ok || e.tomb {
		return nil, false
	}
	return append([]byte(nil), e.val...), true
}

// GetVersioned returns a copy of the entry with its epoch, logical
// version, and tombstone flag. ok is false only for keys the store has
// never heard of — a tombstone returns ok with tomb set and a nil value.
func (s *Store) GetVersioned(key string) (value []byte, epoch uint32, ver uint64, tomb, ok bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, 0, 0, false, false
	}
	if e.tomb {
		return nil, e.epoch, e.ver, true, true
	}
	return append([]byte(nil), e.val...), e.epoch, e.ver, false, true
}

// GetEpoch returns the epoch a key was stored under.
func (s *Store) GetEpoch(key string) (uint32, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	return e.epoch, ok
}

// Set stores a copy of value under key at epoch 0 (pre-rotation data).
func (s *Store) Set(key string, value []byte) {
	s.SetEpoch(key, value, 0)
}

// SetEpoch stores a copy of value under key, stamped with epoch. The
// write is unconditional: a client write always wins over whatever was
// there (seed semantics, version 0).
func (s *Store) SetEpoch(key string, value []byte, epoch uint32) {
	s.SetVersioned(key, value, epoch, 0)
}

// SetVersioned stores a copy of value under key, stamped with epoch and
// logical version ver, reporting whether the write was applied. Version
// 0 is the unversioned last-write-wins path and always applies. A
// non-zero version applies only over an absent entry or a strictly older
// stored version — the highest-version-wins rule that makes replica
// repair and hint replay idempotent and safe against reordering (a
// replayed old write can never clobber a newer value or resurrect a
// tombstoned key).
func (s *Store) SetVersioned(key string, value []byte, epoch uint32, ver uint64) bool {
	sh := s.shard(key)
	cp := append([]byte(nil), value...)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[key]
	if ver != 0 && ok && cur.ver >= ver {
		return false
	}
	s.logAppend(key, cp, epoch, ver, false)
	if ok && cur.tomb {
		sh.tombs--
	}
	sh.m[key] = entry{val: cp, epoch: epoch, ver: ver}
	return true
}

// CasVersioned applies a compare-and-swap: value is stored at newVer
// only if the entry's current live version equals expect. An absent or
// tombstoned key has live version 0, so expect 0 is CAS-create (and
// correctly fails once the key exists). newVer 0 asks the store to
// assign cur+1 — the single-node path for callers without a version
// clock; replicated writes pass the frontend-assigned version so copies
// stay comparable. A repeated delivery of the same CAS (same non-zero
// newVer already live) reports success again, which is what makes a
// quorum retry safe.
//
// It returns (applied, ver): on success ver is the entry's new live
// version; on a conflict it is the live version the precondition lost
// to, for the caller to retry against. The check-and-write is atomic
// under the shard lock, and an applied swap is logged write-through like
// any other versioned write.
func (s *Store) CasVersioned(key string, value []byte, epoch uint32, expect, newVer uint64) (applied bool, ver uint64) {
	sh := s.shard(key)
	cp := append([]byte(nil), value...)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[key]
	live := uint64(0)
	if ok && !cur.tomb {
		live = cur.ver
	}
	if ok && !cur.tomb && newVer != 0 && cur.ver == newVer {
		return true, newVer // duplicate delivery of an applied swap
	}
	if live != expect && !testHooks.disableCasCheck.Load() {
		return false, live
	}
	if newVer == 0 {
		newVer = cur.ver + 1
	}
	if ok && cur.ver >= newVer {
		// Highest-version-wins still holds even when the live version
		// matched: a tombstone at a newer version (live 0) must not be
		// overwritten by a swap stamped older than it.
		return false, live
	}
	s.logAppend(key, cp, epoch, newVer, false)
	if ok && cur.tomb {
		sh.tombs--
	}
	sh.m[key] = entry{val: cp, epoch: epoch, ver: newVer}
	return true, newVer
}

// SetGuarded applies a migration copy: the value is stored only if the
// key is absent or its current entry carries a strictly older epoch.
// It reports whether the write was applied. The check-and-write is
// atomic under the shard lock, so a concurrent client SetEpoch at the
// new epoch can never be overwritten by migrated (stale) data. The
// copied entry keeps its origin's logical version ver.
func (s *Store) SetGuarded(key string, value []byte, epoch uint32, ver uint64) bool {
	sh := s.shard(key)
	cp := append([]byte(nil), value...)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[key]
	if ok && cur.epoch >= epoch {
		return false
	}
	s.logAppend(key, cp, epoch, ver, false)
	if ok && cur.tomb {
		sh.tombs--
	}
	sh.m[key] = entry{val: cp, epoch: epoch, ver: ver}
	return true
}

// Delete removes key outright, reporting whether it existed (including
// as a tombstone). This is the unversioned hard delete: rotation purges
// and tombstone GC use it; replicated client deletes should use
// DeleteVersioned so the removal survives repair.
func (s *Store) Delete(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	cur, ok := sh.m[key]
	if ok {
		// An unversioned tombstone in the log is the hard-delete record:
		// replay drops the key entirely. Deleting an absent key logs
		// nothing — there is no state change to make durable.
		s.logAppend(key, nil, cur.epoch, 0, true)
	}
	if ok && cur.tomb {
		sh.tombs--
	}
	delete(sh.m, key)
	sh.mu.Unlock()
	return ok
}

// DeleteVersioned records a tombstone for key at the given epoch and
// version: the key reads as absent, and the tombstone's version blocks
// any older write (a missed Set replayed by a hint, a stale replica copy
// pushed by repair) from resurrecting it. Applied only over an absent
// entry or a strictly older version; reports whether the tombstone (or
// an equal-or-newer one) is in place after the call — false means a
// NEWER write beat the delete.
func (s *Store) DeleteVersioned(key string, epoch uint32, ver uint64) bool {
	if ver == 0 {
		return s.Delete(key)
	}
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.m[key]; ok {
		if cur.ver > ver {
			return false
		}
		if cur.ver == ver {
			return cur.tomb
		}
		if !cur.tomb {
			sh.tombs++
		}
	} else {
		sh.tombs++
	}
	s.logAppend(key, nil, epoch, ver, true)
	sh.m[key] = entry{epoch: epoch, ver: ver, tomb: true}
	return true
}

// SweepTombstones removes tombstones with versions strictly below
// before, returning how many were dropped. Tombstones must outlive the
// window in which a missed write could still be replayed (hints,
// anti-entropy rounds); the caller picks that horizon. The sweep is not
// logged to an attached WAL: a swept tombstone reappearing at replay is
// harmless (it still reads as absent), and the log forgets it through
// merge GC at the same horizon (Backend.CompactData keeps the two in
// lockstep).
func (s *Store) SweepTombstones(before uint64) int {
	swept := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.tomb && e.ver < before {
				delete(sh.m, k)
				sh.tombs--
				swept++
			}
		}
		sh.mu.Unlock()
	}
	return swept
}

// ScanOptions selects what a Scan page carries beyond live values.
type ScanOptions struct {
	// Tombs includes tombstones in the page (as valueless entries with
	// Tomb set). Without it, tombstoned keys are skipped — the
	// migration scanner predates tombstones and must not see them.
	Tombs bool
	// Digest replaces each live value with its 64-bit content hash in
	// ScanEntry.Sum. Anti-entropy compares replicas by digest pages and
	// fetches full values only for keys that actually differ.
	Digest bool
}

// valueSumSeed keys the digest-mode content hash. Both sides of an
// anti-entropy comparison run this same code, so any fixed seed works.
const valueSumSeed = 0x5ca9

// ValueSum is the 64-bit content hash carried by digest-mode scan
// entries.
func ValueSum(value []byte) uint64 {
	return hashing.Hash64(string(value), valueSumSeed)
}

// Scan returns up to limit entries whose key ID (KeyID) is strictly
// greater than afterID, ordered by key ID, plus the cursor for the next
// page (0 when the scan is complete). belowEpoch filters to entries
// stored under a strictly older epoch (0 = no filter); maxBytes bounds
// the page's value bytes (<= 0 = unbounded) so one page cannot exceed a
// wire frame. Ordering by hashed key ID makes the cursor stable under
// concurrent inserts and deletes — a key's ID never changes, so a
// resumed scan never re-walks territory it already covered. (Two keys
// colliding on a 64-bit ID would shadow each other in a page boundary;
// with 2^64 IDs that is not a practical concern.)
func (s *Store) Scan(afterID uint64, limit int, belowEpoch uint32, maxBytes int, opts ScanOptions) ([]proto.ScanEntry, uint64) {
	if limit <= 0 {
		return nil, 0
	}
	// Collect only the page's candidates: a bounded max-heap of the
	// `limit` smallest key IDs above the cursor. The walk is still O(N)
	// per page — unavoidable, keys are hash-ordered — but the working set
	// is O(limit) instead of O(N), and the ordering cost is
	// O(N log limit) instead of the O(N log N) full sort that made a
	// complete scan of a large store quadratic-with-log in page count.
	h := scanHeap{cands: make([]scanCand, 0, limit)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, e := range sh.m {
			if belowEpoch != 0 && e.epoch >= belowEpoch {
				continue
			}
			if e.tomb && !opts.Tombs {
				continue
			}
			if id := KeyID(key); id > afterID {
				h.offer(id, key, limit)
			}
		}
		sh.mu.RUnlock()
	}
	cands := h.cands
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	var out []proto.ScanEntry
	bytes := 0
	lastID := afterID
	for _, c := range cands {
		// Re-read under the shard lock: the entry may have been deleted
		// or rewritten (possibly past the epoch filter) since the
		// collection pass.
		sh := s.shard(c.key)
		sh.mu.RLock()
		e, ok := sh.m[c.key]
		sh.mu.RUnlock()
		if !ok || (belowEpoch != 0 && e.epoch >= belowEpoch) || (e.tomb && !opts.Tombs) {
			continue
		}
		se := proto.ScanEntry{Key: c.key, Epoch: e.epoch, Ver: e.ver}
		cost := 0
		switch {
		case e.tomb:
			se.Tomb = true
		case opts.Digest:
			se.Digest = true
			se.Sum = ValueSum(e.val)
		default:
			se.Value = append([]byte(nil), e.val...)
			cost = len(e.val)
		}
		// The byte budget stops the page *before* an entry that would
		// blow it — except the first, so a single oversized value still
		// makes progress instead of wedging the scan.
		if maxBytes > 0 && len(out) > 0 && bytes+cost > maxBytes {
			return out, lastID
		}
		out = append(out, se)
		bytes += cost
		lastID = c.id
	}
	if h.overflow {
		// Keys beyond the heap's reach exist; resume after the largest ID
		// this page considered (not just emitted — candidates filtered at
		// re-read should not be re-walked forever).
		return out, cands[len(cands)-1].id
	}
	return out, 0
}

// scanCand is one bounded-heap candidate: a key and its scan ID.
type scanCand struct {
	id  uint64
	key string
}

// scanHeap is a max-heap (largest ID at the root) holding the smallest
// `limit` candidate IDs seen so far.
type scanHeap struct {
	cands    []scanCand
	overflow bool // a candidate was discarded: more pages remain
}

func (h *scanHeap) offer(id uint64, key string, limit int) {
	if len(h.cands) < limit {
		h.cands = append(h.cands, scanCand{id: id, key: key})
		// Sift up.
		i := len(h.cands) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.cands[p].id >= h.cands[i].id {
				break
			}
			h.cands[p], h.cands[i] = h.cands[i], h.cands[p]
			i = p
		}
		return
	}
	if id >= h.cands[0].id {
		h.overflow = true
		return
	}
	// Replace the root (current largest) and sift down.
	h.overflow = true
	h.cands[0] = scanCand{id: id, key: key}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.cands) && h.cands[l].id > h.cands[big].id {
			big = l
		}
		if r < len(h.cands) && h.cands[r].id > h.cands[big].id {
			big = r
		}
		if big == i {
			return
		}
		h.cands[i], h.cands[big] = h.cands[big], h.cands[i]
		i = big
	}
}

// AppendValue appends the stored value for key to dst, returning the
// grown slice plus the entry's logical version, tombstone flag, and
// whether the store holds the key at all. Nothing is appended for a
// tombstone or an unknown key. The copy happens under the shard lock
// straight into the caller's buffer, so read-heavy callers (the backend
// GET path) can reuse one scratch buffer per connection instead of
// allocating a value copy per request.
func (s *Store) AppendValue(dst []byte, key string) (out []byte, ver uint64, tomb, ok bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	if ok && !e.tomb {
		dst = append(dst, e.val...)
	}
	sh.mu.RUnlock()
	return dst, e.ver, e.tomb, ok
}

// Len returns the number of live stored keys (tombstones excluded).
// O(shards): each shard tracks its tombstone count as it mutates.
func (s *Store) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.m) - sh.tombs
		sh.mu.RUnlock()
	}
	return total
}

// TombCount returns the number of tombstones currently held. O(shards).
func (s *Store) TombCount() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.tombs
		sh.mu.RUnlock()
	}
	return total
}
