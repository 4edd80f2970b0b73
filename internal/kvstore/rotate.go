package kvstore

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"securecache/internal/partition"
	"securecache/internal/rotation"
)

// This file is the secret-rotation constructor of the remap engine
// (remap.go) — the same members under a fresh seed — plus the pieces
// every epoch change shares: the dual-generation read path, moveEntry,
// the migration transport, and the admin verbs.

// Default rotation parameters (RotationConfig zero values).
const (
	// DefaultRotationRate caps migration at this many moved keys per
	// second. Deliberately modest: a rotation is damage control, and
	// finishing a little later is cheaper than stealing capacity from
	// the very cluster the rotation is trying to relieve.
	DefaultRotationRate = 2048.0
	// DefaultRotationBurst is the token-bucket burst for the above.
	DefaultRotationBurst = 256
	// DefaultMovedFractionSamples is how many keys Rotate samples to
	// estimate the migration volume it reports.
	DefaultMovedFractionSamples = 4096
)

// RotationConfig tunes live mapping rotation. The zero value uses the
// defaults above.
type RotationConfig struct {
	// Rate caps migration moves per second (0 = DefaultRotationRate;
	// negative = unlimited, for tests and offline bulk moves).
	Rate float64
	// Burst is the migration token-bucket burst (0 = DefaultRotationBurst).
	Burst int
	// Batch is the SCAN page size (0 = the migrator default).
	Batch int
	// MovedFractionSamples sizes the pre-rotation MovedFraction estimate
	// (0 = DefaultMovedFractionSamples).
	MovedFractionSamples int
	// MaxAttempts bounds retries of one failing scan or move before the
	// migration pass surfaces the error (0 = the migrator default). View
	// changes check for a dead joiner between passes, so a lower value
	// makes the join-abort grace period more responsive.
	MaxAttempts int
	// Backoff is the base per-attempt retry backoff (0 = the migrator
	// default).
	Backoff time.Duration
}

// ErrRotationInProgress reports a Rotate while one is already running.
var ErrRotationInProgress = errors.New("kvstore: rotation already in progress")

// RotationReport is what Rotate returns to the operator before the
// migration has finished: the new epoch and how much data is expected to
// move. The new seed itself is deliberately NOT echoed anywhere — it is
// the secret the rotation exists to re-establish.
type RotationReport struct {
	Epoch uint32 `json:"epoch"`
	// ExpectedMovedFraction is the sampled fraction of keys whose replica
	// group changes under the new seed (~1 for a seed rotation of a plain
	// hash partitioner — the full reshuffle is the point).
	ExpectedMovedFraction float64 `json:"expected_moved_fraction"`
}

// RotationStatus is the observable state of the rotation subsystem.
type RotationStatus struct {
	Epoch    uint32 `json:"epoch"`
	Rotating bool   `json:"rotating"`
	// Moved counts keys migrated in the current (or last) rotation.
	Moved uint64 `json:"moved"`
	// Completed counts rotations that have committed since boot.
	Completed uint64 `json:"completed"`
}

// Rotate re-keys the secret mapping: it opens a rotation to a fresh
// partitioner seeded with newSeed, starts the background migration, and
// returns immediately with the new epoch and the expected migration
// volume. The dual-epoch read path keeps every key readable throughout;
// RotationStatus (or the rotation metrics) report progress.
func (f *Frontend) Rotate(newSeed uint64) (RotationReport, error) {
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	if f.part.Rotating() {
		return RotationReport{}, ErrRotationInProgress
	}
	// Re-seed over the CURRENT member set (global IDs with holes after
	// membership changes — the Remap translates).
	members := f.memb.Current().Members()
	next, err := newMemberMapping(f.cfg.Partitioner, members, f.cfg.Replication, newSeed)
	if err != nil {
		return RotationReport{}, err
	}
	epoch, frac, err := f.openChange(next, members, nil)
	if err != nil {
		return RotationReport{}, err
	}
	f.curSeed = newSeed
	f.metrics.Counter("rotations_total").Inc()
	return RotationReport{Epoch: epoch, ExpectedMovedFraction: frac}, nil
}

// RotationStatus reports the current epoch and migration progress.
func (f *Frontend) RotationStatus() RotationStatus {
	f.rotateMu.Lock()
	mig := f.migrator
	f.rotateMu.Unlock()
	var moved uint64
	if mig != nil {
		moved = mig.Moved()
	}
	epoch, _, prev := f.part.Snapshot()
	return RotationStatus{
		Epoch:     epoch,
		Rotating:  prev != nil,
		Moved:     moved,
		Completed: f.metrics.Counter("rotations_completed_total").Value(),
	}
}

// fetchReplicasVersioned routes one read through the epoch-aware path:
// the current generation's group first; only a clean NotFound may
// consult the previous generation. Neither a transport failure (absence
// was never established) nor a tombstone (absence is authoritative — the
// old copy is precisely the deleted value) may fall back. The winning
// replica's logical version rides along (a tombstone miss reports the
// tombstone's version alongside the NotFound-class error).
func (f *Frontend) fetchReplicasVersioned(key string) ([]byte, uint64, error) {
	id := KeyID(key)
	_, cur, prev := f.part.Snapshot()
	// One group is consulted at a time and none outlives its fetch, so
	// every generation's group is built in the same scratch buffer.
	buf := groupBufs.Get().(*[8]int)
	defer groupBufs.Put(buf)
	fetch := func(p partition.Partitioner) ([]byte, uint64, error) {
		return f.fetchGroupVersioned(key, f.orderGroup(p.GroupAppend(buf[:0], id)))
	}
	if prev == nil || f.part.Migrated(id) {
		return fetch(cur)
	}
	v, ver, err := fetch(cur)
	if errors.Is(err, errDeleted) {
		return nil, ver, ErrNotFound
	}
	if err == nil || !errors.Is(err, ErrNotFound) {
		return v, ver, err
	}
	f.metrics.Counter("rotation_fallback_reads_total").Inc()
	v, ver, err = fetch(prev)
	switch {
	case err == nil:
		if f.part.Migrated(id) {
			// A write or migration landed between our two reads, so the
			// new group is authoritative now and the old value may be
			// stale — re-read rather than return it.
			return fetch(cur)
		}
		f.readRepair(key, v, ver)
		return v, ver, nil
	case errors.Is(err, ErrNotFound):
		// In neither generation (a tombstone in the old one counts — the
		// value is gone either way) — unless a migration purged the old
		// copy between our two reads. One second look at the new group
		// settles it (migration copies land before the purge).
		v, ver, err = fetch(cur)
		if errors.Is(err, errDeleted) {
			return nil, ver, ErrNotFound
		}
		return v, ver, err
	default:
		return nil, 0, err
	}
}

// readRepair migrates a key the moment a read had to fall back to the
// old generation, so each key pays the dual-read cost at most once. Hot
// keys — exactly the ones an attack concentrates on — therefore move
// within one request of the rotation starting, without waiting for the
// background scan to reach them. Best-effort: on error the migrator
// will reach the key anyway.
func (f *Frontend) readRepair(key string, value []byte, ver uint64) {
	if err := f.moveEntry(key, value, ver); err == nil {
		f.metrics.Counter("rotation_read_repair_total").Inc()
	}
}

// moveEntry re-places one entry under the current mapping: epoch-guarded
// copies to every node of the new group, the migration watermark, then a
// purge from old-only nodes. It is idempotent and safe against every
// concurrent writer:
//
//   - A client Set at the current epoch wins over the guarded copies
//     (stored epoch >= copy epoch -> the copy is a no-op), and its own
//     writes re-tag shared nodes so scans stop seeing them.
//   - A client Del is excluded by tombMu for the duration of the I/O: if
//     the stone is already down we never copy; if Del arrives mid-move
//     it blocks here, then deletes from both generations' homes,
//     removing whatever this call placed.
//
// Note it does NOT short-circuit on Migrated(id): a key marked migrated
// by a client Set still has stale copies on old-only nodes, and the
// purge below is what retires them from the scan.
func (f *Frontend) moveEntry(key string, value []byte, ver uint64) error {
	id := KeyID(key)
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	if _, dead := f.tombs[key]; dead {
		return nil
	}
	epoch, cur, prev := f.part.Snapshot()
	if prev == nil {
		return nil // rotation closed under us; nothing left to place
	}
	ns := f.fleet.Load()
	newGroup := cur.Group(id)
	oldGroup := prev.Group(id)
	for _, node := range newGroup {
		if err := ns.clients[node].CopyEpoch(key, value, epoch, ver); err != nil {
			f.noteBackendError(node, err)
			return err
		}
		f.health.onSuccess(node)
	}
	// Mark before purging: a reader that sees the watermark skips the old
	// generation entirely, which is only sound once every new-group
	// replica holds the entry (it does, as of the loop above).
	f.part.MarkMigrated(id)
	if equalNodeSets(newGroup, oldGroup) {
		f.metrics.Counter("migration_keys_retagged_total").Inc()
	} else {
		f.metrics.Counter("migration_keys_moved_total").Inc()
	}
	for _, node := range oldGroup {
		if !containsNode(newGroup, node) {
			if err := ns.clients[node].Del(key); err != nil {
				f.noteBackendError(node, err)
				// A purge against a dead node (a drained member that
				// crashed, say) must not wedge the migration: the entry is
				// safely re-homed, and the leftover copy is invisible to
				// reads — the node is out of both groups or demoted. It is
				// re-purged by the next scan pass if the node recovers.
				if f.nodeUnavailable(node) {
					f.metrics.Counter("migration_purge_skipped_total").Inc()
					continue
				}
				return err
			}
			f.health.onSuccess(node)
		}
	}
	return nil
}

// nodeUnavailable reports that node's breaker is open: probes and real
// traffic are failing, so the migrator should scan around it rather
// than wedge on it.
func (f *Frontend) nodeUnavailable(node int) bool {
	return f.health != nil && f.health.state(node) == breakerOpen
}

// equalNodeSets reports whether two replica groups contain the same
// nodes (order-insensitive; groups are tiny).
func equalNodeSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, n := range a {
		if !containsNode(b, n) {
			return false
		}
	}
	return true
}

// migrationTransport adapts the frontend's backend clients to the
// rotation.Transport interface, feeding the health tracker (so a node
// dying mid-migration is detected by the migration itself, not only by
// client traffic) and the adaptive rate controller.
type migrationTransport struct {
	f    *Frontend
	rate *migRateController
}

func (t *migrationTransport) Scan(node int, cursor uint64, limit int) ([]rotation.Entry, uint64, error) {
	// Filter server-side to entries below the rotation's epoch: entries
	// already moved (or written fresh) are invisible to the scan, which
	// is what makes repeated passes converge.
	entries, next, err := t.f.fleet.Load().clients[node].Scan(cursor, limit, t.f.part.Epoch())
	if err != nil {
		t.f.noteBackendError(node, err)
		return nil, 0, err
	}
	t.f.health.onSuccess(node)
	out := make([]rotation.Entry, len(entries))
	for i, e := range entries {
		out[i] = rotation.Entry{Key: e.Key, Value: e.Value, Epoch: e.Epoch, Ver: e.Ver}
	}
	return out, next, nil
}

func (t *migrationTransport) Move(e rotation.Entry) error {
	err := t.f.moveEntry(e.Key, e.Value, e.Ver)
	if t.rate != nil {
		if errors.Is(err, ErrBusy) {
			t.rate.onBusy()
		} else if err == nil {
			t.rate.onClean()
		}
	}
	return err
}

// AdminHandlers returns the frontend's rotation and membership control
// verbs for mounting on its admin server (StartAdminWith):
//
//	POST /rotate          rotate to a fresh random secret seed
//	POST /rotate?seed=N   rotate to an explicit seed (tests; accepts
//	                      0x-prefixed hex)
//	GET  /rotation        rotation status as JSON
//	POST /join?addr=A     add backend(s) at address(es) A (repeatable)
//	POST /drain?id=N      drain member(s) N out of the cluster
//	GET  /membership      membership status as JSON
//
// /rotate answers 200 with a RotationReport, 409 while any epoch change
// is open. The seed never appears in the response or the logs. /join
// and /drain answer 200 with a MembershipReport, 202 with a queued one
// behind an in-flight view change, 409 during a rotation.
func (f *Frontend) AdminHandlers() map[string]http.HandlerFunc {
	h := f.membershipHandlers()
	h["/rotate"], h["/rotation"] = f.rotationHandlers()
	for path, handler := range f.tierHandlers() {
		h[path] = handler
	}
	return h
}

func (f *Frontend) rotationHandlers() (rotate, status http.HandlerFunc) {
	m := map[string]http.HandlerFunc{
		"/rotate": func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			var seed uint64
			if s := r.URL.Query().Get("seed"); s != "" {
				var err error
				seed, err = strconv.ParseUint(s, 0, 64)
				if err != nil {
					http.Error(w, "bad seed: "+err.Error(), http.StatusBadRequest)
					return
				}
			} else {
				var buf [8]byte
				if _, err := rand.Read(buf[:]); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				seed = binary.LittleEndian.Uint64(buf[:])
			}
			report, err := f.Rotate(seed)
			switch {
			case errors.Is(err, ErrRotationInProgress):
				http.Error(w, err.Error(), http.StatusConflict)
				return
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(report)
		},
		"/rotation": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(f.RotationStatus())
		},
	}
	return m["/rotate"], m["/rotation"]
}

// unionNodes returns a ∪ b preserving a's order then b's novel entries
// (groups are tiny; quadratic is fine).
func unionNodes(a, b []int) []int {
	out := append([]int(nil), a...)
	for _, n := range b {
		if !containsNode(out, n) {
			out = append(out, n)
		}
	}
	return out
}

func containsNode(nodes []int, n int) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}
