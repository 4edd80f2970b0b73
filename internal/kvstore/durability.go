package kvstore

import (
	"errors"
	"fmt"
	"log"
	"time"

	"securecache/internal/overload"
	"securecache/internal/proto"
	"securecache/internal/repair"
)

// This file is the frontend half of the write-durability subsystem:
// the logical-version clock that orders every replicated write, hinted
// handoff for replicas that miss writes, within-epoch read repair, and
// the background anti-entropy loop (mechanism in internal/repair;
// storage semantics in store.go). Quorum accounting for Set, Del and
// Cas lives in write.go.
//
// The invariant the pieces share: every replicated write carries a
// version from one frontend-wide monotonic clock, and every replica
// applies writes highest-version-wins. That makes every repair channel
// (hint replay, read repair, anti-entropy) a bag of idempotent,
// order-free messages — delivering any subset, any number of times, in
// any order, can only move replicas toward the newest state.

// Defaults for the durability knobs in FrontendConfig.
const (
	// DefaultRepairInterval is the anti-entropy pass cadence.
	DefaultRepairInterval = 30 * time.Second
	// DefaultRepairRate caps repair writes per second, modest for the
	// same reason the migration rate is: repair competes with client
	// traffic for the very capacity it is restoring.
	DefaultRepairRate  = 1024.0
	DefaultRepairBurst = 128
	// hintDrainInterval is how often queued hints are offered to their
	// (possibly recovered) nodes.
	hintDrainInterval = 250 * time.Millisecond
	// readRepairQueueCap bounds the async read-repair queue; overflow
	// drops the job (anti-entropy converges the replica later).
	readRepairQueueCap = 1024
	// readRepairDedupCap bounds the at-most-once-per-key dedup set.
	readRepairDedupCap = 1 << 16
)

// errDeleted is the authoritative-tombstone miss: a current-group
// replica answered "deleted at version v". It satisfies
// errors.Is(err, ErrNotFound) for every external caller, but the
// dual-epoch read path checks for it specifically — a tombstone must
// suppress the old-generation fallback, or a rotation-era delete would
// resurface the pre-rotation copy.
var errDeleted = fmt.Errorf("%w (tombstoned)", ErrNotFound)

// nextVer issues the next logical version: strictly monotonic within
// this frontend, seeded from the wall clock in microseconds so versions
// stay monotonic across a frontend restart (the clock would have to
// step backwards further than the downtime to reissue a version).
func (f *Frontend) nextVer() uint64 {
	for {
		old := f.verClock.Load()
		next := uint64(time.Now().UnixMicro())
		if next <= old {
			next = old + 1
		}
		if f.verClock.CompareAndSwap(old, next) {
			return next
		}
	}
}

// writeQuorumFor resolves the configured write quorum W: how many
// replicas of the d-sized group must ack a Set/Del before it succeeds.
// 0 picks the majority default ⌈(d+1)/2⌉.
func writeQuorumFor(configured, replication int) (int, error) {
	if configured == 0 {
		return (replication + 2) / 2, nil
	}
	if configured < 1 || configured > replication {
		return 0, fmt.Errorf("kvstore: write quorum %d out of [1, %d]", configured, replication)
	}
	return configured, nil
}

// enqueueHint buffers a write a replica missed for later replay.
func (f *Frontend) enqueueHint(h repair.Hint) {
	if f.hints == nil {
		return
	}
	if f.hints.Add(h) {
		f.metrics.Counter("hints_queued_total").Inc()
	} else {
		f.metrics.Counter("hints_dropped_total").Inc()
	}
	f.metrics.Gauge("hints_pending").Set(int64(f.hints.Total()))
}

// applyHint replays one hint against its node. Membership is re-checked
// at replay time: a rotation while the node was down may have moved the
// key elsewhere, and replaying there would plant an orphan — the hint is
// dropped instead (nil), since migration and anti-entropy own the key's
// new home.
func (f *Frontend) applyHint(h repair.Hint) error {
	if !containsNode(f.part.Group(KeyID(h.Key)), h.Node) {
		return nil
	}
	ns := f.fleet.Load()
	if h.Del {
		return ns.clients[h.Node].DelVersioned(h.Key, h.Epoch, h.Ver)
	}
	return ns.clients[h.Node].SetVersioned(h.Key, h.Value, h.Epoch, h.Ver)
}

// hintDrainLoop periodically offers queued hints to their nodes. A node
// is tried only while its breaker is not open (the probe loop half-opens
// it once pings succeed); a failed replay leaves the hint queued for the
// next tick. Hint files (when persistence is on) are synced each round.
func (f *Frontend) hintDrainLoop() {
	defer f.rotWG.Done()
	t := time.NewTicker(hintDrainInterval)
	defer t.Stop()
	replayed := f.metrics.Counter("hints_replayed_total")
	pending := f.metrics.Gauge("hints_pending")
	for {
		select {
		case <-f.rotStop:
			if err := f.hints.Sync(); err != nil {
				log.Printf("kvstore: hint sync on close: %v", err)
			}
			return
		case <-t.C:
			for _, node := range f.hints.Nodes() {
				// A retired node's hints still drain: applyHint drops each
				// one as a no-op (the node is in no group now), emptying
				// the queue instead of pinning it forever. Open-breaker
				// live nodes wait for the probe loop as before.
				if !f.health.retiredNode(node) && !f.health.healthy(node) {
					continue
				}
				applied, err := f.hints.Drain(node, f.applyHint)
				if applied > 0 {
					replayed.Add(uint64(applied))
				}
				if err != nil {
					// Node answered pings but refused the replay (or died
					// again): the remaining hints stay queued.
					continue
				}
			}
			pending.Set(int64(f.hints.Total()))
			if err := f.hints.Sync(); err != nil {
				log.Printf("kvstore: hint sync: %v", err)
			}
		}
	}
}

// readRepairJob asks the worker to place value@ver on replicas that
// answered a clean NotFound while a sibling held the key.
type readRepairJob struct {
	key   string
	nodes []int
	value []byte
	ver   uint64
}

// scheduleReadRepair queues an async repair of the empty replicas seen
// during a failover read — at most once per key (bounded dedup), so a
// hot missing replica costs one repair write, not one per request.
// Version-0 (legacy unversioned) values are not pushed: without a
// version the write would be unconditional and could clobber a
// concurrent newer write on the target; anti-entropy settles those.
func (f *Frontend) scheduleReadRepair(key string, nodes []int, value []byte, ver uint64) {
	if ver == 0 || len(nodes) == 0 || testHooks.disableReadRepair.Load() {
		return
	}
	f.repairedMu.Lock()
	if len(f.repaired) >= readRepairDedupCap {
		// Reset rather than grow without bound: "at most once" degrades
		// to "at most once per reset window", which is still bounded.
		f.repaired = make(map[string]struct{})
	}
	if _, done := f.repaired[key]; done {
		f.repairedMu.Unlock()
		return
	}
	f.repaired[key] = struct{}{}
	f.repairedMu.Unlock()
	job := readRepairJob{
		key:   key,
		nodes: append([]int(nil), nodes...),
		value: append([]byte(nil), value...),
		ver:   ver,
	}
	select {
	case f.repairJobs <- job:
	default:
		f.metrics.Counter("read_repair_dropped_total").Inc()
	}
}

// readRepairWorker drains the async read-repair queue. One goroutine:
// read repair is an optimization, and serializing it bounds the write
// amplification a burst of divergent reads can generate.
func (f *Frontend) readRepairWorker() {
	defer f.rotWG.Done()
	repairs := f.metrics.Counter("read_repair_total")
	failed := f.metrics.Counter("read_repair_failed_total")
	for {
		select {
		case <-f.rotStop:
			return
		case job := <-f.repairJobs:
			epoch := f.part.Epoch()
			group := f.part.Group(KeyID(job.key))
			ns := f.fleet.Load()
			for _, node := range job.nodes {
				if !containsNode(group, node) {
					continue // rotation moved the key while the job sat queued
				}
				if err := ns.clients[node].SetVersioned(job.key, job.value, epoch, job.ver); err != nil {
					failed.Inc()
					continue
				}
				repairs.Inc()
			}
		}
	}
}

// repairTransport adapts the frontend's backend clients to the
// repair.Transport interface.
type repairTransport struct {
	f *Frontend
}

func (t *repairTransport) ScanDigest(node int, cursor uint64, limit int) ([]proto.ScanEntry, uint64, error) {
	return t.f.fleet.Load().clients[node].ScanPage(cursor, limit, 0, ScanOptions{Tombs: true, Digest: true})
}

func (t *repairTransport) Fetch(node int, key string) (value []byte, ver uint64, tomb, ok bool, err error) {
	v, ver, tomb, err := t.f.fleet.Load().clients[node].GetV(key)
	switch {
	case err == nil:
		return v, ver, false, true, nil
	case errors.Is(err, ErrNotFound):
		if tomb {
			return nil, ver, true, true, nil
		}
		return nil, 0, false, false, nil
	default:
		return nil, 0, false, false, err
	}
}

func (t *repairTransport) Apply(node int, e repair.Entry) error {
	ns := t.f.fleet.Load()
	if e.Del {
		return ns.clients[node].DelVersioned(e.Key, e.Epoch, e.Ver)
	}
	return ns.clients[node].SetVersioned(e.Key, e.Value, e.Epoch, e.Ver)
}

func (t *repairTransport) Group(key string) []int {
	return t.f.part.Group(KeyID(key))
}

// newRepairer builds the anti-entropy engine over the given member IDs
// (nil when fewer than two — no pairs to compare). Rebuilt on every
// committed view change so repair always walks the live member set.
func (f *Frontend) newRepairer(members []int) (*repair.Repairer, error) {
	if len(members) < 2 {
		return nil, nil
	}
	rate := f.cfg.RepairRate
	var limiter *overload.TokenBucket
	if rate >= 0 {
		if rate == 0 {
			rate = DefaultRepairRate
		}
		limiter = overload.NewTokenBucket(rate, DefaultRepairBurst)
	}
	return repair.NewRepairer(repair.Config{
		NodeIDs:  members,
		Limiter:  limiter,
		KeyID:    KeyID,
		OnDiff:   f.metrics.Counter("repair_diffs_total").Inc,
		OnRepair: f.metrics.Counter("repair_keys_repaired_total").Inc,
	}, &repairTransport{f: f})
}

// RunRepairPass runs one anti-entropy pass synchronously (tests and
// operators forcing convergence now instead of waiting an interval).
// No-op while a rotation is migrating — cross-node movement belongs to
// the migrator until the epoch commits.
func (f *Frontend) RunRepairPass() (int, error) {
	rep := f.repairer.Load()
	if rep == nil || f.part.Rotating() {
		return 0, nil
	}
	f.metrics.Counter("repair_passes_total").Inc()
	n, err := rep.Pass(f.rotStop)
	if err != nil && !errors.Is(err, repair.ErrStopped) {
		f.metrics.Counter("repair_failed_total").Inc()
	}
	return n, err
}

// repairLoop drives anti-entropy passes on the configured interval.
func (f *Frontend) repairLoop(interval time.Duration) {
	defer f.rotWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.rotStop:
			return
		case <-t.C:
			if n, err := f.RunRepairPass(); err != nil {
				if errors.Is(err, repair.ErrStopped) {
					return
				}
				log.Printf("kvstore: anti-entropy pass: %v (will retry)", err)
			} else if n > 0 {
				log.Printf("kvstore: anti-entropy pass repaired %d replicas", n)
			}
		}
	}
}
