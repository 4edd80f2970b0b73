// Package rotation implements epoch-based secret remapping: rotating the
// key -> replica-group mapping to a fresh secret seed while the cluster
// keeps serving.
//
// The paper's provisioning bound (Theorem 1 / Eq. 10) rests on
// Assumption 1 — the mapping is unpredictable to clients. Once the seed
// leaks, a targeted adversary concentrates its whole request stream on
// one replica group and the bound collapses (internal/attack shows
// this). Rotation restores the secrecy premise the same way DistCache's
// re-randomization defeats a learning adversary: pick a new seed, move
// every key to its new group, retire the old mapping.
//
// Doing that live needs three pieces, all here:
//
//   - EpochPartitioner: a versioned partitioner holding the current and
//     (during a rotation) previous generation, plus a per-key migration
//     watermark so readers can skip the old-generation fallback once a
//     key has provably moved.
//   - Migrator: a background engine that streams un-migrated entries out
//     of every node (via the owner-provided Transport, in practice the
//     proto SCAN op) and re-places them under the new mapping,
//     rate-limited through an overload.TokenBucket so migration traffic
//     cannot itself become the overload it exists to prevent.
//   - Responder (responder.go): the guard -> rotation trigger with
//     hysteresis and cooldown, so a flapping detector cannot thrash the
//     cluster through back-to-back migrations.
package rotation

import (
	"errors"
	"sync"

	"securecache/internal/partition"
)

// ErrRotationActive reports a Begin while a rotation is already open.
var ErrRotationActive = errors.New("rotation: rotation already in progress")

// EpochPartitioner is a partition.Partitioner whose mapping can be
// swapped live. Epochs count up from 1; during a rotation both the new
// (current) and old (previous) generations are visible so callers can
// run a dual-epoch read path. It is safe for concurrent use.
type EpochPartitioner struct {
	mu       sync.RWMutex
	epoch    uint32
	cur      partition.Partitioner
	prev     partition.Partitioner
	migrated map[uint64]struct{} // key IDs settled at the current epoch
}

// NewEpochPartitioner wraps an initial mapping as epoch 1.
func NewEpochPartitioner(p partition.Partitioner) *EpochPartitioner {
	if p == nil {
		panic("rotation: nil partitioner")
	}
	return &EpochPartitioner{epoch: 1, cur: p}
}

// Epoch returns the current epoch number.
func (e *EpochPartitioner) Epoch() uint32 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// Rotating reports whether a rotation is open (a previous generation is
// still visible).
func (e *EpochPartitioner) Rotating() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.prev != nil
}

// Snapshot returns the epoch plus the current and previous generations
// (prev is nil outside a rotation). The three values are mutually
// consistent — callers should route one request off one snapshot rather
// than re-reading state between steps.
func (e *EpochPartitioner) Snapshot() (epoch uint32, cur, prev partition.Partitioner) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch, e.cur, e.prev
}

// Begin opens an epoch change to the next generation and returns the
// new epoch number. next may cover a different node set than the
// current generation (a join or drain) or the same one under a fresh
// seed (a secret rotation); the caller owns the member set — this type
// only versions the mapping. Fails with ErrRotationActive if a change
// is already open.
func (e *EpochPartitioner) Begin(next partition.Partitioner) (uint32, error) {
	if next == nil {
		return 0, errors.New("rotation: Begin with nil partitioner")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prev != nil {
		return 0, ErrRotationActive
	}
	e.prev = e.cur
	e.cur = next
	e.epoch++
	e.migrated = make(map[uint64]struct{})
	return e.epoch, nil
}

// Reverse swaps the open rotation's direction: the previous generation
// becomes current again (under a fresh epoch number) while the rotation
// STAYS OPEN, with the abandoned generation now playing the "previous"
// role. This is how a failed view change rolls back without losing
// data: entries already moved live only under the abandoned mapping, so
// simply restoring the old mapping would orphan them — instead the
// caller reverses and runs a forward migration back toward the old
// mapping, committing once the scans drain. The migration watermark resets (nothing has migrated
// toward the restored generation yet).
func (e *EpochPartitioner) Reverse() (uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prev == nil {
		return 0, errors.New("rotation: Reverse with no rotation open")
	}
	e.cur, e.prev = e.prev, e.cur
	e.epoch++
	e.migrated = make(map[uint64]struct{})
	return e.epoch, nil
}

// Commit closes the rotation: the previous generation and the migration
// watermark are dropped. Call only after the migrator has drained.
func (e *EpochPartitioner) Commit() {
	e.mu.Lock()
	e.prev = nil
	e.migrated = nil
	e.mu.Unlock()
}

// MarkMigrated records that a key ID is fully present in its
// current-epoch replica group, letting readers skip the old-generation
// fallback. No-op outside a rotation.
func (e *EpochPartitioner) MarkMigrated(id uint64) {
	e.mu.Lock()
	if e.migrated != nil {
		e.migrated[id] = struct{}{}
	}
	e.mu.Unlock()
}

// Migrated reports whether a key ID has been marked migrated in the open
// rotation (false outside one).
func (e *EpochPartitioner) Migrated(id uint64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.migrated == nil {
		return false
	}
	_, ok := e.migrated[id]
	return ok
}

// Nodes implements partition.Partitioner against the current generation.
func (e *EpochPartitioner) Nodes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur.Nodes()
}

// Replicas implements partition.Partitioner against the current
// generation.
func (e *EpochPartitioner) Replicas() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur.Replicas()
}

// Group implements partition.Partitioner against the current generation.
func (e *EpochPartitioner) Group(key uint64) []int {
	e.mu.RLock()
	p := e.cur
	e.mu.RUnlock()
	return p.Group(key)
}

// GroupAppend implements partition.Partitioner against the current
// generation.
func (e *EpochPartitioner) GroupAppend(dst []int, key uint64) []int {
	e.mu.RLock()
	p := e.cur
	e.mu.RUnlock()
	return p.GroupAppend(dst, key)
}

var _ partition.Partitioner = (*EpochPartitioner)(nil)
