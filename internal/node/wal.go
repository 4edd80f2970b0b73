package node

import (
	"errors"
	"fmt"
	"log"
	"os"

	"securecache/internal/proto"
	"securecache/internal/wal"
)

// This file joins the in-memory Store to the write-ahead log in
// internal/wal. The store stays the source of truth for reads; the log
// is the durability shadow: every applied mutation is appended (under
// the shard lock, after its guard checks pass) before the map changes,
// so a crashed node reopens its data directory and replays its way back
// to the exact pre-crash state instead of restarting empty and being
// refilled over the network by hinted handoff and anti-entropy.

// AttachWAL makes every subsequent applied mutation write-through to l.
// Attach before serving traffic: mutations racing the attach would miss
// the log. The store does not take ownership — the caller closes l
// (Backend.Close does, for logs attached via OpenData).
func (s *Store) AttachWAL(l *wal.Log) {
	s.log.Store(l)
}

// logAppend appends one applied mutation to l, if any. Called by put
// and drop under the owning shard's lock, after guard checks: the log
// receives exactly the mutations that won, in the order they won. An
// append error does not fail the client write — the node stays
// available and the failure is visible in wal.Stats.AppendErrors — but
// it is logged, because it means the durability contract is degraded
// until the disk recovers.
func logAppend(l *wal.Log, key string, e entry) {
	if l == nil {
		return
	}
	if err := l.Append(key, e.val, e.epoch, e.ver, e.tomb); err != nil {
		log.Printf("node: wal append %q: %v", key, err)
	}
}

// applyReplayed installs one replayed WAL record. Replay delivers the
// newest record per key exactly once, so this is a plain install with
// logging off — the guard logic already ran before the record was
// logged. Keys are re-checked against the wire limits: no client could
// have written a key outside them, so such a record marks the segment as
// corrupt.
func (s *Store) applyReplayed(rec wal.Record) error {
	if len(rec.Key) == 0 || len(rec.Key) > proto.MaxKeyLen {
		return fmt.Errorf("replayed key length %d outside [1, %d]", len(rec.Key), proto.MaxKeyLen)
	}
	if len(rec.Value) > proto.MaxValueLen {
		return fmt.Errorf("replayed value length %d exceeds %d", len(rec.Value), proto.MaxValueLen)
	}
	e := entry{epoch: rec.Epoch, ver: rec.Ver, tomb: rec.Tomb}
	if !rec.Tomb {
		e.val = append([]byte(nil), rec.Value...)
	}
	sh := s.shard(rec.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.put(nil, rec.Key, sh.m[rec.Key], e)
	return nil
}

// OpenData opens (or creates) the node's data directory, replays it
// into the store, and attaches the log for write-through. Must run
// before Serve. recovered reports the quarantine path: a directory
// replay rejected as corrupt (wal.ErrBadSegment) is renamed aside to
// dir+".corrupt", the store is reset, and the node starts empty on a
// fresh log — replica repair refills it. Errors that are not
// corruption (permissions, disk full) fail the open outright: starting
// a non-durable node silently is worse than not starting.
func (b *Backend) OpenData(dir string, opts wal.Options) (recovered bool, err error) {
	// Replay enforces the wire limits, not engine defaults: a record no
	// client could have sent is corruption evidence (they are the same
	// numbers today, but the wire protocol owns them).
	opts.MaxKeyLen = proto.MaxKeyLen
	opts.MaxValueLen = proto.MaxValueLen
	l, err := wal.Open(dir, opts, b.store.applyReplayed)
	if err == nil {
		b.store.AttachWAL(l)
		b.wal = l
		return false, nil
	}
	if !errors.Is(err, wal.ErrBadSegment) {
		return false, fmt.Errorf("node: backend %d open data: %w", b.id, err)
	}
	log.Printf("node: backend %d: data dir %s corrupt (%v); quarantining and starting empty", b.id, dir, err)
	quarantine := dir + ".corrupt"
	os.RemoveAll(quarantine) // a previous quarantine: one level of history is enough
	if rerr := os.Rename(dir, quarantine); rerr != nil {
		return false, fmt.Errorf("node: backend %d quarantine data dir: %w", b.id, rerr)
	}
	// Replay may have applied a prefix before hitting the corruption;
	// discard it — a partial keyspace served as authoritative is how
	// stale reads are born. Safe before Serve: nothing else holds b.store.
	b.store = NewStore()
	l, err = wal.Open(dir, opts, nil)
	if err != nil {
		return false, fmt.Errorf("node: backend %d reopen after quarantine: %w", b.id, err)
	}
	b.store.AttachWAL(l)
	b.wal = l
	return true, nil
}

// WAL exposes the attached log (nil when the node runs memory-only).
func (b *Backend) WAL() *wal.Log { return b.wal }

// CompactData advances the tombstone horizon on both halves of the
// node's state at once: tombstones below horizon are swept from the
// in-memory store and dropped from the log by a merge pass. Using one
// horizon for both is what prevents the restart hazard where disk
// forgets a delete the memory still guards with (or vice versa).
func (b *Backend) CompactData(horizon uint64) (swept int, ms wal.MergeStats, err error) {
	swept = b.store.SweepTombstones(horizon)
	if b.wal != nil {
		ms, err = b.wal.Merge(horizon)
	}
	return swept, ms, err
}
