package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"securecache/internal/proto"
	"securecache/internal/repair"
)

// This file is the frontend's replicated write path. Every client write
// is one job: stamp a version, send it to the key's d replicas, count
// acks against W, and hint the replicas that missed it. writeGroup does
// the sending and the counting once; Set, Del and Cas each say only what
// a replica applies and how the answers decide the outcome.

// nodeErr is one replica's failed write. where labels a replica that is
// not a quorum member (Del's old-generation purge).
type nodeErr struct {
	node  int
	where string
	err   error
}

// nodeVer is one replica's CAS precondition miss: its live version.
type nodeVer struct {
	node int
	ver  uint64
}

// quorum is one replicated write's answers, in group order.
type quorum struct {
	need, n   int       // W, and the replicas asked
	acks      int       // replicas that applied the write
	failed    []nodeErr // transport failures and sheds
	conflicts []nodeVer // healthy CAS answers whose live version missed expect
}

func (q *quorum) ok() bool { return q.acks >= q.need }

// allBusy reports whether every failure was a shed: the nodes are alive
// and protecting themselves, so the caller should back off, not treat
// them as broken.
func (q *quorum) allBusy() bool {
	for _, fe := range q.failed {
		if !errors.Is(fe.err, ErrBusy) {
			return false
		}
	}
	return len(q.failed) > 0
}

// err builds the below-quorum error every write verb reports. note is
// appended inside the "(need W...)" parenthesis; busy wraps ErrBusy
// instead (and drops the note).
func (q *quorum) err(verb, key, note string, busy bool) error {
	detail := ""
	if len(q.failed) > 0 {
		lines := make([]string, len(q.failed))
		for i, fe := range q.failed {
			lines[i] = fmt.Sprintf("node %d%s: %v", fe.node, fe.where, fe.err)
		}
		detail = ": " + strings.Join(lines, "; ")
	}
	if busy {
		return fmt.Errorf("kvstore: %s %q: %d/%d acks (need %d)%s: %w",
			verb, key, q.acks, q.n, q.need, detail, ErrBusy)
	}
	return fmt.Errorf("kvstore: %s %q: %d/%d acks (need %d%s)%s",
		verb, key, q.acks, q.n, q.need, note, detail)
}

// writeGroup sends write to every replica in group and tallies the
// answers. Every replica's write starts before any is awaited — the
// last one runs on the caller's goroutine — so the fan-out costs one
// overlapped round trip, and on pipelined backend clients the frames
// share the writer's writev batches. Writes to distinct replicas commute
// (each applies under its own shard lock, highest version wins), so
// overlapping them changes no observable history; a CAS is decided by
// quorum intersection at the replicas, not by send order.
func (f *Frontend) writeGroup(ns *nodeSet, group []int, write func(*Client) (uint64, error)) quorum {
	q := quorum{need: f.writeQuorum, n: len(group)}
	if len(group) == 0 {
		return q
	}
	type answer struct {
		ver uint64
		err error
	}
	answers := make([]answer, len(group))
	last := len(group) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i, node := range group {
		ns.inflight[node].Add(1)
		if i == last {
			break
		}
		go func() {
			defer wg.Done()
			answers[i].ver, answers[i].err = write(ns.clients[node])
			ns.inflight[node].Add(-1)
		}()
	}
	answers[last].ver, answers[last].err = write(ns.clients[group[last]])
	ns.inflight[group[last]].Add(-1)
	wg.Wait()
	for i, node := range group {
		a := answers[i]
		if a.err == nil {
			f.health.onSuccess(node)
			q.acks++
			continue
		}
		var conflict *CasConflictError
		if errors.As(a.err, &conflict) {
			// A conflict answer is a healthy answer.
			f.health.onSuccess(node)
			q.conflicts = append(q.conflicts, nodeVer{node: node, ver: a.ver})
		} else {
			f.noteBackendError(node, a.err)
			q.failed = append(q.failed, nodeErr{node: node, err: a.err})
		}
	}
	return q
}

// writeResponse encodes a write verb's outcome for the wire. The
// assigned version rides back on success so writers can chain a Cas (or
// record a checkable history) without a follow-up read; old clients
// ignore the payload.
func writeResponse(op proto.Op, ver uint64, err error) *proto.Response {
	if err != nil {
		return replyErr(op, err)
	}
	return reply(proto.StatusOK, binary.BigEndian.AppendUint64(nil, ver))
}

// replyErr answers a failed frontend verb. A CAS conflict, a miss and a
// shed keep their status — busy means every replica shed, so the client
// backs off instead of retrying into a saturated cluster; anything else
// is logged and sanitized.
func replyErr(op proto.Op, err error) *proto.Response {
	var conflict *CasConflictError
	switch {
	case errors.As(err, &conflict):
		return reply(proto.StatusConflict, proto.EncodeCasConflictPayload(nil, conflict.Cur, conflict.Partial))
	case errors.Is(err, ErrNotFound):
		return reply(proto.StatusNotFound, nil)
	case errors.Is(err, ErrBusy):
		return reply(proto.StatusBusy, nil)
	default:
		return errResponse("frontend", op, err)
	}
}

// Set writes the key's group with a fresh logical version and succeeds
// once W (FrontendConfig.WriteQuorum) replicas ack. Replicas that miss
// the write are queued for hinted handoff; because every replica applies
// writes highest-version-wins, the replay is idempotent and the group
// converges to this value (or a newer one) regardless of delivery order.
// Below W the error is returned, but surviving replicas keep the write —
// the system favors availability over strict atomicity, like the
// Dynamo-style systems the paper cites, and the version ordering keeps
// the partial write from ever rolling back a newer one.
func (f *Frontend) Set(key string, value []byte) error {
	_, err := f.SetV(key, value)
	return err
}

// SetV is Set returning the logical version the write was stamped with:
// the handle a caller chains a Cas onto, and the ground truth recorded
// consistency histories need to bind values to versions.
func (f *Frontend) SetV(key string, value []byte) (uint64, error) {
	f.requestsTotal.Inc()
	f.setsTotal.Inc()
	// Detach any in-flight miss fetch for this key once the write is
	// done: a miss arriving after the write must fetch post-write state,
	// not join a flight whose backend reads predate it.
	defer f.flights.Forget(key)
	// Epoch write barrier: the group and the epoch stamp must come from
	// one generation — Rotate's flip waits for writes in flight here.
	f.rotMu.RLock()
	defer f.rotMu.RUnlock()
	epoch, cur, prev := f.part.Snapshot()
	id := KeyID(key)
	if prev != nil {
		// The key legitimately exists again: drop any tombstone a
		// rotation-era Del left, or the migrator would skip it.
		f.tombMu.Lock()
		delete(f.tombs, key)
		f.tombMu.Unlock()
	}
	ver := f.nextVer()
	buf := groupBufs.Get().(*[8]int)
	defer groupBufs.Put(buf)
	q := f.writeGroup(f.fleet.Load(), cur.GroupAppend(buf[:0], id), func(c *Client) (uint64, error) {
		return 0, c.SetVersioned(key, value, epoch, ver)
	})
	for _, fe := range q.failed {
		f.enqueueHint(repair.Hint{Node: fe.node, Key: key, Value: value, Epoch: epoch, Ver: ver})
	}
	if len(q.failed) == 0 && prev != nil {
		// Every replica of the NEW group holds the value at the new
		// epoch: readers may skip the old-generation fallback for this
		// key from now on. (Quorum success is NOT enough — a replica that
		// missed the write may only hold the old-generation copy.)
		f.part.MarkMigrated(id)
	}
	if !q.ok() {
		// Below quorum the write's fate is ambiguous: some replicas hold
		// the new value, and the cached (old) entry would contradict
		// them. Drop it.
		f.cacheRemove(key)
		return 0, q.err("set", key, "", q.allBusy())
	}
	// With quorum met the new value is the winning version cluster-wide,
	// so caching it is sound even while hinted replicas lag.
	if f.cache != nil {
		f.cacheWrote(key, encodeEntry(key, ver, value))
	}
	return ver, nil
}

// Del writes a versioned tombstone to the key's group and invalidates
// the cache, succeeding once W replicas ack. The tombstone (not a bare
// delete) is what makes a partial Del safe: a replica that missed it
// still holds the old value, but the tombstone's higher version beats
// that value in every read, hint replay, and anti-entropy comparison —
// the key cannot be resurrected by the lagging replica.
func (f *Frontend) Del(key string) error {
	_, err := f.DelV(key)
	return err
}

// DelV is Del returning the version of the tombstone the delete wrote —
// the threshold below which any later live sighting of the key is a
// resurrection.
func (f *Frontend) DelV(key string) (uint64, error) {
	f.requestsTotal.Inc()
	f.delsTotal.Inc()
	// As in Set: once the tombstones are down, no later miss may join a
	// fetch that started before them, nor fill the cache from one.
	defer f.flights.Forget(key)
	defer f.cacheRemove(key)
	f.rotMu.RLock()
	defer f.rotMu.RUnlock()
	epoch, cur, prev := f.part.Snapshot()
	id := KeyID(key)
	buf := groupBufs.Get().(*[8]int)
	defer groupBufs.Put(buf)
	group := cur.GroupAppend(buf[:0], id)
	if prev != nil {
		// Tombstone the rotation map FIRST: once the stone is down, a
		// migration copy that already scanned the old value cannot
		// re-create the key (moveEntry checks under tombMu before any
		// I/O) — and taking tombMu here also waits out any copy already
		// in flight, whose result the writes below then supersede.
		f.tombMu.Lock()
		f.tombs[key] = struct{}{}
		f.tombMu.Unlock()
	}
	ver := f.nextVer()
	ns := f.fleet.Load()
	q := f.writeGroup(ns, group, func(c *Client) (uint64, error) {
		return 0, c.DelVersioned(key, epoch, ver)
	})
	for _, fe := range q.failed {
		f.enqueueHint(repair.Hint{Node: fe.node, Key: key, Epoch: epoch, Ver: ver, Del: true})
	}
	// Old-generation homes are purged with a hard delete: they are not
	// part of the quorum (the current group's tombstone already blocks
	// the fallback read path), but a failed purge is still reported —
	// the leftover entry would keep the migration scan from draining.
	purgeFailed := false
	if prev != nil {
		// The old generation's group lands behind the current one in the
		// same buffer and is filtered in place to its old-only nodes.
		stale := prev.GroupAppend(group, id)[len(group):]
		n := 0
		for _, node := range stale {
			if !containsNode(group, node) {
				stale[n] = node
				n++
			}
		}
		stale = stale[:n]
		purge := f.writeGroup(ns, stale, func(c *Client) (uint64, error) { return c.DelV(key) })
		for _, fe := range purge.failed {
			fe.where = " (old generation)"
			q.failed = append(q.failed, fe)
		}
		purgeFailed = len(purge.failed) > 0
	}
	if !q.ok() || purgeFailed {
		return 0, q.err("del", key, "", q.allBusy())
	}
	return ver, nil
}

// Cas performs a replicated compare-and-swap: value replaces the entry
// only if its live version equals expect (0 = CAS-create over an absent
// or tombstoned key), succeeding once W replicas applied the swap.
//
// Why quorum intersection makes this linearizable per key: the frontend
// stamps each CAS with a fresh version from its monotonic clock and
// fans it out to the key's group, where every replica checks the
// precondition under its shard lock. With W a majority of d, two CAS
// ops expecting the same version share at least one replica; that
// replica's shard lock serializes them and the loser fails its check
// there, so it cannot collect W applied acks. At most one swap per
// expectation wins.
//
// Failure reporting is three-valued, and callers must honor all three:
//
//   - nil: the swap committed at the returned version.
//   - *CasConflictError with Partial false: definitely rejected —
//     replicas with conflict evidence answered and nothing was written.
//   - *CasConflictError with Partial true, or any transport/quorum
//     error: AMBIGUOUS. The value reached some replicas but the quorum
//     outcome is unknown (a partially applied swap at the highest
//     version can still win anti-entropy later). Recorded histories
//     must treat these as "maybe applied" — the consistency checker's
//     register model does.
func (f *Frontend) Cas(key string, value []byte, expect uint64) (uint64, error) {
	f.requestsTotal.Inc()
	f.casTotal.Inc()
	// As in Set: once the swap is down, no later miss may join a fetch
	// that started before it.
	defer f.flights.Forget(key)
	f.rotMu.RLock()
	defer f.rotMu.RUnlock()
	epoch, cur, prev := f.part.Snapshot()
	id := KeyID(key)
	if prev != nil && !f.part.Migrated(id) {
		// Mid-rotation the new group may not hold the key yet, and a CAS
		// judged against its emptiness would misfire (an expect-0 create
		// "succeeding" over a live old-generation value). Pull the key
		// through the dual-epoch read first: a fallback hit migrates it
		// into the new group (readRepair -> moveEntry), after which the
		// precondition is judged against real state. A clean miss in both
		// generations means live version 0 is the truth.
		if _, _, err := f.fetchReplicasVersioned(key); err != nil && !errors.Is(err, ErrNotFound) {
			return 0, fmt.Errorf("kvstore: cas %q: pre-migration read: %w", key, err)
		}
	}
	if prev != nil {
		// The key may legitimately exist again after the swap: drop any
		// rotation-era tombstone, as Set does.
		f.tombMu.Lock()
		delete(f.tombs, key)
		f.tombMu.Unlock()
	}
	ver := f.nextVer()
	buf := groupBufs.Get().(*[8]int)
	defer groupBufs.Put(buf)
	q := f.writeGroup(f.fleet.Load(), cur.GroupAppend(buf[:0], id), func(c *Client) (uint64, error) {
		return c.CasVersioned(key, value, epoch, expect, ver)
	})
	// Split the conflict answers by direction: a NEWER live version is
	// real evidence the expectation lost; an OLDER one just means that
	// replica missed the write the caller read (it is lagging, and the
	// quorum that holds the newer state decides).
	conflictCur := uint64(0) // highest newer-than-expect live version seen
	laggingCur := uint64(0)  // highest older-than-expect live version seen
	lagging := 0
	for _, c := range q.conflicts {
		if c.ver > expect {
			conflictCur = max(conflictCur, c.ver)
		} else {
			laggingCur = max(laggingCur, c.ver)
			lagging++
		}
	}
	if q.ok() {
		// Committed. Hint every replica that did not ack: failed, lagging
		// and newer-than-expect alike. A hint applies highest-version-wins
		// as a plain versioned set, not as a CAS, so it only brings
		// forward what anti-entropy would do later: a newer-than-expect
		// replica holds a below-quorum loser's copy, which the committed
		// value@ver replaces unless its version is higher still, in which
		// case the replay is a no-op.
		for _, fe := range q.failed {
			f.enqueueHint(repair.Hint{Node: fe.node, Key: key, Value: value, Epoch: epoch, Ver: ver})
		}
		for _, c := range q.conflicts {
			f.enqueueHint(repair.Hint{Node: c.node, Key: key, Value: value, Epoch: epoch, Ver: ver})
		}
		if f.cache != nil {
			f.cacheWrote(key, encodeEntry(key, ver, value))
		}
		return ver, nil
	}
	// Below quorum: whatever the cache holds may now contradict some
	// replicas either way.
	f.cacheRemove(key)
	if conflictCur > 0 || (expect > 0 && lagging > 0 && q.acks == 0 && len(q.failed) == 0) {
		// The expectation lost. Partial marks the ambiguous flavor: our
		// value landed on acks replicas (or its fate is clouded by
		// transport failures), so the caller cannot treat the swap as
		// never-happened. No hints here — actively spreading a failed
		// CAS would manufacture exactly the lost-update CAS exists to
		// prevent; a partial copy either loses to the conflicting newer
		// version during anti-entropy or (rarely) wins with this
		// frontend's highest version, which is why Partial must be
		// surfaced rather than swallowed.
		f.casConflicts.Inc()
		cur := conflictCur
		if cur == 0 {
			// Unanimous lagging conflict: the whole group answered with
			// versions OLDER than the caller's expectation. Report the
			// highest one as the retry basis — that is the group's live
			// truth right now.
			cur = laggingCur
		}
		return cur, &CasConflictError{Cur: cur, Partial: q.acks > 0 || len(q.failed) > 0}
	}
	// Busy only when every replica shed. A swap that reached a replica
	// must not read as busy: TierClient.Cas replays busy swaps through
	// another frontend, which would apply it a second time.
	busy := q.acks == 0 && lagging == 0 && q.allBusy()
	return 0, q.err("cas", key, fmt.Sprintf(", %d lagging", lagging), busy)
}
