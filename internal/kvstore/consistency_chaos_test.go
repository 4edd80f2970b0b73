package kvstore

// Consistency fault matrix: recorded histories driven through the full
// cluster under deterministic fault schedules, judged by the
// internal/consistency checkers. Each scenario records every client
// operation's invoke/return through a consistency.Recorder, quiesces the
// cluster (heal faults, drain hints, run anti-entropy), observes replica
// state directly, and then runs the checker the scenario's configuration
// earns:
//
//   - register (linearizable versioned register): sound when every
//     definite outcome is quorum-decided, reads cannot flip-flop between
//     divergent replicas, AND no two writes to one key overlap in time.
//     The last condition is the system's own: versions are assigned at
//     the frontend before replicas order the writes, so concurrent mixed
//     writes (blind Set racing a create-CAS) resolve by
//     highest-version-wins and can mask an acked Set — inherent LWW
//     behavior, not a bug the checker should flag. Every scenario
//     therefore register-checks only single-writer keys: the partitioned
//     writer keys of the single-replica scenario (with racing readers)
//     and the dedicated CAS-chain keys of the partition, rotation, and
//     membership scenarios (quorum intersection decides every swap even
//     mid-fault or mid-migration).
//   - convergence (provenance, version binding, replica monotonicity,
//     no-resurrection, post-barrier agreement): demanded of EVERY
//     scenario; StrictDeletes only where the write quorum covers the
//     group (or the schedule provably keeps the tombstone readable).
//
// The TestConsistencyMutation* tests close the loop: each disables one
// safeguard via testHooks (hooks.go) and asserts the checker FAILS the
// resulting history — proof the contract is enforced, not vacuously
// passed. Failing histories are dumped as replayable artifacts
// (CONSISTENCY_ARTIFACT_DIR or the test's temp dir) that re-check
// byte-identically; -consistency-seed pins the randomized workloads.
//
// Run standalone with `make consistency`.

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/consistency"
	"securecache/internal/faultnet"
	"securecache/internal/node"
	"securecache/internal/overload"
)

var consistencySeed = flag.Uint64("consistency-seed", 1,
	"seed for the consistency fault-matrix workloads (failure artifacts record it for replay)")

// kvConsErrs classifies kvstore errors for the recorder: ErrNotFound is
// a definite miss, a non-partial CasConflictError is a definite
// conflict, and everything else stays ambiguous.
func kvConsErrs() consistency.Errs {
	return consistency.Errs{
		IsNotFound: func(err error) bool { return errors.Is(err, ErrNotFound) },
		Conflict: func(err error) (uint64, bool, bool) {
			var ce *CasConflictError
			if errors.As(err, &ce) {
				return ce.Cur, ce.Partial, true
			}
			return 0, false, false
		},
	}
}

func consKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return keys
}

// consRNG derives one worker's deterministic stream from the suite seed.
func consRNG(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(*consistencySeed, salt))
}

// consMixedOps runs n mixed operations against keys through one
// recorded proc. mix is cumulative percentages {get, set, del}; the
// remainder is CAS. The worker tracks the last version it learned per
// key and uses it as the CAS expectation, adopting the conflict
// evidence when a swap loses — so histories carry successes, definite
// conflicts, and (under faults) ambiguous outcomes.
func consMixedOps(rk *consistency.RecordedKV, rng *rand.Rand, keys []string, n int, mix [3]int) {
	lastVer := make(map[string]uint64)
	for i := 0; i < n; i++ {
		key := keys[rng.IntN(len(keys))]
		val := []byte(fmt.Sprintf("v-p%d-%d-%x", rk.Proc, i, rng.Uint64()))
		switch pick := rng.IntN(100); {
		case pick < mix[0]:
			if _, ver, _, err := rk.GetV(key); err == nil {
				lastVer[key] = ver
			} else if errors.Is(err, ErrNotFound) {
				lastVer[key] = 0
			}
		case pick < mix[0]+mix[1]:
			if ver, err := rk.SetV(key, val); err == nil {
				lastVer[key] = ver
			}
		case pick < mix[0]+mix[1]+mix[2]:
			if _, err := rk.DelV(key); err == nil {
				lastVer[key] = 0
			}
		default:
			ver, err := rk.Cas(key, val, lastVer[key])
			var ce *CasConflictError
			switch {
			case err == nil:
				lastVer[key] = ver
			case errors.As(err, &ce) && !ce.Partial:
				lastVer[key] = ce.Cur
			}
		}
	}
}

// consCasWorker drives one single-writer CAS chain on key until stop
// (and at least minOps ops). A Maybe keeps the stale expectation — the
// next attempt's definite conflict carries the live version and
// re-synchronizes the chain.
func consCasWorker(rk *consistency.RecordedKV, rng *rand.Rand, key string, minOps int, stop func() bool) {
	expect := uint64(0)
	for i := 0; !stop() || i < minOps; i++ {
		val := []byte(fmt.Sprintf("cas-p%d-%d-%x", rk.Proc, i, rng.Uint64()))
		ver, err := rk.Cas(key, val, expect)
		var ce *CasConflictError
		switch {
		case err == nil:
			expect = ver
		case errors.As(err, &ce) && !ce.Partial:
			expect = ce.Cur
		}
	}
}

// consObserve reads each key directly from every replica in its group
// (bypassing the frontend) and records the observations. clients is
// indexed by backend ID; sessions[i] is backend i's restart count.
// Unreachable replicas yield no observation.
func consObserve(rec *consistency.Recorder, f *Frontend, clients []*Client, sessions []int, keys []string) {
	for _, key := range keys {
		for _, node := range f.Group(key) {
			v, ver, tomb, err := clients[node].GetV(key)
			obs := consistency.ReplicaObs{Replica: node, Session: sessions[node], Key: key}
			switch {
			case err == nil:
				obs.Present, obs.Val, obs.Ver = true, v, ver
			case errors.Is(err, ErrNotFound) && tomb:
				obs.Present, obs.Tomb, obs.Ver = true, true, ver
			case errors.Is(err, ErrNotFound):
				// Clean miss: present=false participates in agreement.
			default:
				continue
			}
			rec.Observe(obs)
		}
	}
}

// consClients opens one direct client per backend address, closed on
// test cleanup.
func consClients(t *testing.T, addrs []string) []*Client {
	t.Helper()
	clients := make([]*Client, len(addrs))
	for i, addr := range addrs {
		clients[i] = NewClient(addr)
	}
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	return clients
}

// consFinalReads records one post-barrier read per key through the
// frontend, pinning client-visible state against the replica consensus.
func consFinalReads(rk *consistency.RecordedKV, keys []string) {
	for _, key := range keys {
		rk.GetV(key)
	}
}

func consDrainHints(t *testing.T, f *Frontend) {
	t.Helper()
	g := f.Metrics().Gauge("hints_pending")
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hint queue did not drain: %d pending", g.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func consWaitServing(t *testing.T, addr string) {
	t.Helper()
	c := NewClient(addr)
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.Ping() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("backend at %s did not come back", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func consArtifactDir(t *testing.T) string {
	if dir := os.Getenv("CONSISTENCY_ARTIFACT_DIR"); dir != "" {
		return dir
	}
	return t.TempDir()
}

func consSaveArtifact(t *testing.T, scenario, model string, strict bool, res consistency.Result, h consistency.History) string {
	t.Helper()
	art := &consistency.Artifact{
		Scenario: scenario, Seed: *consistencySeed, Model: model, Strict: strict,
		Failure: res.Failures, History: h,
	}
	path := filepath.Join(consArtifactDir(t), scenario+"-"+model+".json")
	if err := art.Save(path); err != nil {
		t.Fatalf("saving failure artifact: %v", err)
	}
	return path
}

// consRequireOK fails the test (dumping a replay artifact) if the
// checker rejected the history.
func consRequireOK(t *testing.T, scenario, model string, strict bool, res consistency.Result, h consistency.History) {
	t.Helper()
	if res.Exhausted {
		t.Logf("%s: %s check exhausted its budget (advisory pass)", scenario, model)
	}
	if res.Ok {
		return
	}
	path := consSaveArtifact(t, scenario, model, strict, res, h)
	t.Fatalf("%s violated the %s contract:\n  %v\nreplay artifact: %s (seed %d)",
		scenario, model, res.Failures, path, *consistencySeed)
}

// consFilterKeys returns the sub-history of ops on keys with the given
// prefix (observations and barrier carried through).
func consFilterKeys(h consistency.History, prefix string) consistency.History {
	out := consistency.History{Barrier: h.Barrier}
	for _, op := range h.Ops {
		if len(op.Key) >= len(prefix) && op.Key[:len(prefix)] == prefix {
			out.Ops = append(out.Ops, op)
		}
	}
	for _, ob := range h.Replica {
		if len(ob.Key) >= len(prefix) && ob.Key[:len(prefix)] == prefix {
			out.Replica = append(out.Replica, ob)
		}
	}
	return out
}

// TestConsistencyLinearizableSingleReplica: d = 1, no faults. Each
// writer owns a disjoint pair of keys and runs the complete op
// vocabulary against them while two reader procs race Gets across every
// key — so reads genuinely overlap writes, but no two WRITES to one key
// ever overlap. That single-writer-per-key discipline is what makes the
// register model sound here: with concurrent mixed writes, a blind Set
// can draw a lower frontend version than a create-CAS that validated
// against pre-Set state, and highest-version-wins masks the acked Set
// (see the rotation scenario, which documents the same exclusion).
func TestConsistencyLinearizableSingleReplica(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 1, Replication: 1, PartitionSeed: 3, WriteQuorum: 1,
		RepairInterval: -1, RepairRate: -1,
	})
	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(lc.Frontend, rec, kvConsErrs())
	keys := consKeys("lin", 8)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		worker := rk.WithProc()
		own := keys[p*2 : p*2+2]
		go func(own []string, salt uint64) {
			defer wg.Done()
			consMixedOps(worker, consRNG(salt), own, 50, [3]int{40, 30, 10})
		}(own, 0x51+uint64(p))
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		reader := rk.WithProc()
		go func(salt uint64) {
			defer wg.Done()
			consMixedOps(reader, consRNG(salt), keys, 60, [3]int{100, 0, 0})
		}(0x5EAD + uint64(p))
	}
	wg.Wait()

	consDrainHints(t, lc.Frontend)
	rec.MarkBarrier()
	consFinalReads(rk, keys)
	consObserve(rec, lc.Frontend, consClients(t, lc.BackendAddrs), []int{0}, keys)

	h := rec.History()
	consRequireOK(t, "single-replica", "register", false,
		consistency.CheckLinearizable(h, consistency.RegisterModel{}, 0), h)
	consRequireOK(t, "single-replica", "convergence", true,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h)
}

// TestConsistencyAsymmetricPartition: three replicas (d = 3, W = 2),
// one behind a faultnet proxy that drops bytes in one direction at a
// time — first client→server (requests vanish, the backend sees
// nothing), then server→client (the backend APPLIES writes whose acks
// vanish — the ack-lost ambiguity OutMaybe exists for). Single-writer
// CAS keys must stay linearizable throughout (quorum intersection
// decides every swap); the mixed-workload keys must converge once the
// partition heals, hints drain, and anti-entropy runs. StrictDeletes is
// OFF: W < d, so a replica may legitimately serve a pre-delete value
// until repair.
func TestConsistencyAsymmetricPartition(t *testing.T) {
	checkGoroutineLeaks(t)
	backends := make([]*Backend, 3)
	addrs := make([]string, 3)
	for i := range backends {
		b, addr, err := StartBackend(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[i], addrs[i] = b, addr
	}
	proxy, err := faultnet.Start(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	f, _, err := StartFrontend(FrontendConfig{
		BackendAddrs: []string{proxy.Addr(), addrs[1], addrs[2]},
		Replication:  3, PartitionSeed: 7, WriteQuorum: 2,
		Client: ClientConfig{DialTimeout: 100 * time.Millisecond, ReadTimeout: 100 * time.Millisecond,
			WriteTimeout: 100 * time.Millisecond, MaxRetries: -1, PipelineDepth: 8},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
	kvKeys := consKeys("kv", 6)
	casKeys := consKeys("cas", 3)

	var schedDone atomic.Bool
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		steps := faultnet.PartitionWindows(faultnet.Faults{DropToServer: true}, 100*time.Millisecond, 100*time.Millisecond, 3)
		steps = append(steps, faultnet.PartitionWindows(faultnet.Faults{DropToClient: true}, 100*time.Millisecond, 100*time.Millisecond, 3)...)
		proxy.RunSchedule(steps)
		schedDone.Store(true)
	}()

	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		worker := rk.WithProc()
		go func(salt uint64) {
			defer wg.Done()
			rng := consRNG(salt)
			for i := 0; !schedDone.Load() || i < 20; i++ {
				consMixedOps(worker, rng, kvKeys, 1, [3]int{40, 35, 10})
			}
		}(0xA7 + uint64(p))
	}
	for i, key := range casKeys {
		wg.Add(1)
		worker := rk.WithProc()
		go func(key string, salt uint64) {
			defer wg.Done()
			consCasWorker(worker, consRNG(salt), key, 15, schedDone.Load)
		}(key, 0xCA5+uint64(i))
	}
	wg.Wait()
	schedWG.Wait()
	proxy.Clear()

	consDrainHints(t, f)
	if _, err := f.RunRepairPass(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rec.MarkBarrier()
	allKeys := append(append([]string(nil), kvKeys...), casKeys...)
	consFinalReads(rk, allKeys)
	consObserve(rec, f, consClients(t, addrs), []int{0, 0, 0}, allKeys)

	h := rec.History()
	// Quorum-decided CAS chains stay linearizable even through one-way
	// drops; sloppy first-live-replica reads of the kv keys do not, so
	// the register model judges only the CAS sub-history.
	casH := consFilterKeys(h, "cas-")
	consRequireOK(t, "asymmetric-partition", "register", false,
		consistency.CheckLinearizable(casH, consistency.RegisterModel{}, 0), casH)
	consRequireOK(t, "asymmetric-partition", "convergence", false,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{}), h)
}

// TestConsistencyCrashMidQuorumWrite: a WAL-backed replica is killed
// mid-workload (in-flight quorum writes lose one ack and record Maybe),
// then warm-restarted from its log. With W = d = 2 nothing commits
// while the replica is down, so after hints drain and anti-entropy
// runs the strict convergence contract — including no-resurrection —
// must hold over the whole history. The register model is deliberately
// NOT run: reads are served by the first live replica, and while the
// survivor carries below-quorum partial writes, consecutive reads can
// legally flip between divergent replicas.
func TestConsistencyCrashMidQuorumWrite(t *testing.T) {
	checkGoroutineLeaks(t)
	b0, addr0, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b0.Close()
	dir := filepath.Join(t.TempDir(), "node1")
	b1, addr1, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}

	f, _, err := StartFrontend(FrontendConfig{
		BackendAddrs: []string{addr0, addr1},
		Replication:  2, PartitionSeed: 13, WriteQuorum: 2,
		Client: ClientConfig{DialTimeout: 200 * time.Millisecond, ReadTimeout: 200 * time.Millisecond,
			WriteTimeout: 200 * time.Millisecond, MaxRetries: -1, PipelineDepth: 8},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
	keys := consKeys("crash", 6)

	runPhase := func(ops int, salt uint64) {
		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			wg.Add(1)
			worker := rk.WithProc()
			go func(salt uint64) {
				defer wg.Done()
				consMixedOps(worker, consRNG(salt), keys, ops, [3]int{35, 35, 10})
			}(salt + uint64(p))
		}
		wg.Wait()
	}

	// Phase 1: the crash lands mid-workload — quorum writes in flight
	// against node 1 lose their second ack and record Maybe.
	var crashWG sync.WaitGroup
	crashWG.Add(1)
	go func() {
		defer crashWG.Done()
		time.Sleep(40 * time.Millisecond)
		b1.Close()
	}()
	runPhase(40, 0xC0)
	crashWG.Wait()

	// Warm restart from the sealed log on the same address.
	l, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	b1r := NewBackend(1)
	recovered, err := b1r.OpenData(dir, walTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("clean crash restart took the corruption-recovery path")
	}
	go b1r.Serve(l)
	defer b1r.Close()
	consWaitServing(t, addr1)

	// Phase 2: traffic against the healed pair.
	runPhase(25, 0xC8)

	consDrainHints(t, f)
	if _, err := f.RunRepairPass(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rec.MarkBarrier()
	consFinalReads(rk, keys)
	consObserve(rec, f, consClients(t, []string{addr0, addr1}), []int{0, 1}, keys)

	h := rec.History()
	consRequireOK(t, "crash-mid-quorum-write", "convergence", true,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h)
}

// TestConsistencyRotationMidHistory: the mapping secret rotates while
// the workload runs. No replica fails and nothing sheds, so every
// outcome is definite. The register model judges the single-writer CAS
// keys — each a quorum-decided chain that the dual-epoch read path and
// the migration are not allowed to break — while the mixed-workload
// keys answer to the strict convergence contract. The mixed keys are
// NOT register-checked: version assignment happens at the frontend
// before the replicas order the write, so a blind Set can commit a
// LOWER version than a concurrent create-CAS that validated against
// pre-Set state. Highest-version-wins then keeps the CAS value, masking
// the acked Set — inherent last-writer-wins behavior for concurrent
// mixed writes to one key, not a rotation regression (rotation's wider
// write fan-out merely makes the overlap likely enough to observe).
func TestConsistencyRotationMidHistory(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 4, Replication: 2, PartitionSeed: 17, WriteQuorum: 2,
		Client:         ClientConfig{PipelineDepth: 8},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	})
	f := lc.Frontend
	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
	keys := consKeys("rot", 10)
	casKeys := consKeys("rotcas", 3)

	var done atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		worker := rk.WithProc()
		go func(salt uint64) {
			defer wg.Done()
			rng := consRNG(salt)
			for i := 0; !done.Load() || i < 30; i++ {
				consMixedOps(worker, rng, keys, 1, [3]int{40, 30, 10})
			}
		}(0x40 + uint64(p))
	}
	for i, key := range casKeys {
		wg.Add(1)
		worker := rk.WithProc()
		go func(key string, salt uint64) {
			defer wg.Done()
			consCasWorker(worker, consRNG(salt), key, 20, done.Load)
		}(key, 0x4CA5+uint64(i))
	}

	time.Sleep(100 * time.Millisecond)
	if _, err := f.Rotate(0x5eed); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for f.RotationStatus().Rotating {
		if time.Now().After(deadline) {
			t.Fatal("rotation did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
	done.Store(true)
	wg.Wait()

	consDrainHints(t, f)
	if _, err := f.RunRepairPass(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rec.MarkBarrier()
	allKeys := append(append([]string(nil), keys...), casKeys...)
	consFinalReads(rk, allKeys)
	consObserve(rec, f, consClients(t, lc.BackendAddrs), make([]int, 4), allKeys)

	h := rec.History()
	casH := consFilterKeys(h, "rotcas-")
	consRequireOK(t, "rotation-mid-history", "register", false,
		consistency.CheckLinearizable(casH, consistency.RegisterModel{}, 0), casH)
	consRequireOK(t, "rotation-mid-history", "convergence", true,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h)
}

// TestConsistencyJoinDrainMidHistory: a backend joins and another
// drains while the workload runs. As with rotation, no faults are
// injected — view changes alone must keep the single-writer CAS chains
// linearizable and the whole history strictly convergent. The mixed
// keys are excluded from the register check for the same reason as in
// the rotation scenario: concurrent blind Set + create-CAS on one key
// resolve by highest-version-wins, which can mask an acked Set.
func TestConsistencyJoinDrainMidHistory(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 29, WriteQuorum: 2,
		Client:         ClientConfig{PipelineDepth: 8},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	})
	f := lc.Frontend
	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
	keys := consKeys("mem", 8)
	casKeys := consKeys("memcas", 3)

	var done atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		worker := rk.WithProc()
		go func(salt uint64) {
			defer wg.Done()
			rng := consRNG(salt)
			for i := 0; !done.Load() || i < 30; i++ {
				consMixedOps(worker, rng, keys, 1, [3]int{40, 30, 10})
			}
		}(0x90 + uint64(p))
	}
	for i, key := range casKeys {
		wg.Add(1)
		worker := rk.WithProc()
		go func(key string, salt uint64) {
			defer wg.Done()
			consCasWorker(worker, consRNG(salt), key, 20, done.Load)
		}(key, 0x9CA5+uint64(i))
	}

	waitIdle := func(what string) {
		deadline := time.Now().Add(15 * time.Second)
		for f.MembershipStatus().Rotating {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not complete", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(80 * time.Millisecond)
	joinAddr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(joinAddr); err != nil {
		t.Fatalf("join: %v", err)
	}
	waitIdle("join")
	if _, err := f.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitIdle("drain")
	done.Store(true)
	wg.Wait()

	consDrainHints(t, f)
	if _, err := f.RunRepairPass(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rec.MarkBarrier()
	allKeys := append(append([]string(nil), keys...), casKeys...)
	consFinalReads(rk, allKeys)
	consObserve(rec, f, consClients(t, lc.BackendAddrs), make([]int, 4), allKeys)

	h := rec.History()
	casH := consFilterKeys(h, "memcas-")
	consRequireOK(t, "join-drain-mid-history", "register", false,
		consistency.CheckLinearizable(casH, consistency.RegisterModel{}, 0), casH)
	consRequireOK(t, "join-drain-mid-history", "convergence", true,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h)
}

// TestConsistencyPipelinedCasChain: the pinned pipelined-wire scenario.
// The recorded ops travel a pipelined TCP connection — one shared wire
// *Client (PipelineDepth 32) against the frontend's address, every CAS
// chain and mixed worker multiplexed on the same conn — and the
// frontend's own quorum fan-out uses pipelined backend clients. A
// faultnet proxy sits on the client→frontend wire and flaps: dropped
// requests leak window slots until the read deadline tears the conn
// down, dropped responses are the classic ack-lost ambiguity, and a
// hard CloseExisting between the two windows fails a full window of
// in-flight frames at once. The register model over the CAS keys is
// what proves correlation matching never mis-delivered a response or
// silently re-applied a swap (the free-retry policy must refuse
// non-idempotent ops after a mid-flight pipe death); strict convergence
// holds because W = d and the backends themselves never fault.
func TestConsistencyPipelinedCasChain(t *testing.T) {
	checkGoroutineLeaks(t)
	backends := make([]*Backend, 3)
	addrs := make([]string, 3)
	for i := range backends {
		b, addr, err := StartBackend(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[i], addrs[i] = b, addr
	}
	f, faddr, err := StartFrontend(FrontendConfig{
		BackendAddrs: addrs,
		Replication:  2, PartitionSeed: 41, WriteQuorum: 2,
		Client: ClientConfig{DialTimeout: 100 * time.Millisecond, ReadTimeout: 100 * time.Millisecond,
			WriteTimeout: 100 * time.Millisecond, MaxRetries: -1, PipelineDepth: 8},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	proxy, err := faultnet.Start(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	wc := NewClientWithConfig(proxy.Addr(), ClientConfig{
		PipelineDepth: 32, MaxRetries: -1,
		DialTimeout: 500 * time.Millisecond, ReadTimeout: 500 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
	})
	defer wc.Close()

	rec := consistency.NewRecorder()
	rk := consistency.NewRecordedKV(wc, rec, kvConsErrs())
	kvKeys := consKeys("pipekv", 6)
	casKeys := consKeys("pipecas", 4)

	var schedDone atomic.Bool
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		proxy.RunSchedule(faultnet.PartitionWindows(
			faultnet.Faults{DropToServer: true}, 100*time.Millisecond, 100*time.Millisecond, 3))
		proxy.CloseExisting() // hard pipe death: fail-all-pending under load
		proxy.RunSchedule(faultnet.PartitionWindows(
			faultnet.Faults{DropToClient: true}, 100*time.Millisecond, 100*time.Millisecond, 3))
		schedDone.Store(true)
	}()

	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		worker := rk.WithProc()
		go func(salt uint64) {
			defer wg.Done()
			rng := consRNG(salt)
			for i := 0; !schedDone.Load() || i < 20; i++ {
				consMixedOps(worker, rng, kvKeys, 1, [3]int{40, 35, 10})
			}
		}(0xB1 + uint64(p))
	}
	for i, key := range casKeys {
		wg.Add(1)
		worker := rk.WithProc()
		go func(key string, salt uint64) {
			defer wg.Done()
			consCasWorker(worker, consRNG(salt), key, 15, schedDone.Load)
		}(key, 0x91CA5+uint64(i))
	}
	wg.Wait()
	schedWG.Wait()
	proxy.Clear()

	consDrainHints(t, f)
	if _, err := f.RunRepairPass(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rec.MarkBarrier()
	allKeys := append(append([]string(nil), kvKeys...), casKeys...)
	consFinalReads(rk, allKeys)
	consObserve(rec, f, consClients(t, addrs), []int{0, 0, 0}, allKeys)

	h := rec.History()
	casH := consFilterKeys(h, "pipecas-")
	consRequireOK(t, "pipelined-cas-chain", "register", false,
		consistency.CheckLinearizable(casH, consistency.RegisterModel{}, 0), casH)
	consRequireOK(t, "pipelined-cas-chain", "convergence", true,
		consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h)
}

// consRequireViolation asserts the checker REJECTED the history with a
// failure mentioning wantSubstr, dumps the artifact, and returns its
// path — the mutation tests' common tail.
func consRequireViolation(t *testing.T, scenario, model string, strict bool, res consistency.Result, h consistency.History, wantSubstr string) string {
	t.Helper()
	if res.Ok {
		t.Fatalf("%s: checker accepted the mutated history — the %s contract is not enforced", scenario, model)
	}
	found := false
	for _, f := range res.Failures {
		if len(wantSubstr) == 0 || containsStr(f, wantSubstr) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("%s: failures %v do not mention %q", scenario, res.Failures, wantSubstr)
	}
	return consSaveArtifact(t, scenario, model, strict, res, h)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConsistencyMutationCasCheckDisabled: with the store's CAS version
// precondition skipped, two swaps against the same expectation both
// "succeed" — the canonical lost update. The register checker must
// reject exactly that history (and accept the guarded run), and the
// dumped artifact must replay byte-identically to the same verdict.
func TestConsistencyMutationCasCheckDisabled(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(t *testing.T, mutate bool) (consistency.Result, consistency.History) {
		if mutate {
			node.DisableCasCheck.Store(true)
			defer node.DisableCasCheck.Store(false)
		}
		lc := startCluster(t, LocalConfig{
			Nodes: 1, Replication: 1, PartitionSeed: 11, WriteQuorum: 1,
			RepairInterval: -1, RepairRate: -1,
		})
		rec := consistency.NewRecorder()
		rk := consistency.NewRecordedKV(lc.Frontend, rec, kvConsErrs())
		base, err := rk.SetV("acct", []byte("base"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rk.Cas("acct", []byte("winner"), base); err != nil {
			t.Fatalf("first cas: %v", err)
		}
		// Guarded, this second swap against the consumed expectation must
		// conflict; mutated, the skipped check lets it "win" too.
		rk.Cas("acct", []byte("loser"), base)
		rk.GetV("acct")
		h := rec.History()
		return consistency.CheckLinearizable(h, consistency.RegisterModel{}, 0), h
	}

	t.Run("guarded", func(t *testing.T) {
		res, h := run(t, false)
		consRequireOK(t, "mutation-cas-check", "register", false, res, h)
	})
	t.Run("mutated", func(t *testing.T) {
		res, h := run(t, true)
		path := consRequireViolation(t, "mutation-cas-check", "register", false, res, h, "")
		// The replay loop: the artifact reloads, re-checks to the same
		// verdict, and re-saves byte for byte.
		art, err := consistency.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		re, err := art.Recheck(0)
		if err != nil || re.Ok {
			t.Fatalf("replayed artifact re-checked to %v, %v; want the original failure", re, err)
		}
		if len(re.Failures) != len(res.Failures) || re.Failures[0] != res.Failures[0] {
			t.Fatalf("replay verdict %v != original %v", re.Failures, res.Failures)
		}
		resaved := filepath.Join(t.TempDir(), "resaved.json")
		if err := art.Save(resaved); err != nil {
			t.Fatal(err)
		}
		b1, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(resaved)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatal("artifact did not replay byte-identically")
		}
	})
}

// TestConsistencyMutationTombAuthorityDisabled: a W = 1 delete lands
// its tombstone on the read path's first replica while the second is
// down (and the hint for it is legitimately dropped — the queue is
// full). The second replica warm-restarts from its WAL still holding
// the live pre-delete value. Tombstone authority is then the ONLY
// thing standing between the reader and a resurrected key: guarded,
// the read returns the authoritative miss; with authority disabled it
// serves the old value, and the strict convergence checker must flag
// the resurrection. (StrictDeletes is sound for this schedule despite
// W < d: both replicas stay reachable for the read, so the tombstone
// is always consulted.)
func TestConsistencyMutationTombAuthorityDisabled(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(t *testing.T, mutate bool) (consistency.Result, consistency.History) {
		b0, addr0, err := StartBackend(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b0.Close()
		dir := filepath.Join(t.TempDir(), "node1")
		b1, addr1, err := StartBackend(1, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b1.OpenData(dir, walTestOpts()); err != nil {
			t.Fatal(err)
		}
		f, _, err := StartFrontend(FrontendConfig{
			BackendAddrs: []string{addr0, addr1},
			Replication:  2, PartitionSeed: 23, WriteQuorum: 1, HintLimit: 1,
			Client: ClientConfig{DialTimeout: 200 * time.Millisecond, ReadTimeout: 200 * time.Millisecond,
				WriteTimeout: 200 * time.Millisecond, MaxRetries: -1},
			Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
			RepairInterval: -1, RepairRate: -1,
		}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		// A key whose group order starts at node 0 — the replica that
		// will hold the tombstone and answer reads first.
		var key string
		for i := 0; i < 512; i++ {
			k := fmt.Sprintf("tomb-key-%d", i)
			if f.Group(k)[0] == 0 {
				key = k
				break
			}
		}
		if key == "" {
			t.Fatal("no key with group order [0 1] found")
		}

		rec := consistency.NewRecorder()
		rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
		// The write fan-out is sequential over the group, so a nil error
		// here means BOTH replicas hold the value (W=1 only bounds the
		// ack wait, not the fan-out).
		if _, err := rk.SetV(key, []byte("alive")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, ok := b1.Store().GetVersioned(key); !ok {
			t.Fatal("node 1 missed the seed write")
		}
		b1.Close()

		// Fill the one-slot hint queue so the delete's hint is dropped —
		// the legitimate overflow path, leaving NO replay that would
		// deliver the tombstone to node 1.
		if _, err := rk.SetV("hint-filler", []byte("filler")); err != nil {
			t.Fatal(err)
		}
		if got := f.Metrics().Gauge("hints_pending").Value(); got != 1 {
			t.Fatalf("hint queue holds %d, want 1", got)
		}
		if _, err := rk.DelV(key); err != nil {
			t.Fatalf("W=1 delete: %v", err)
		}
		if got := f.Metrics().Counter("hints_dropped_total").Value(); got == 0 {
			t.Fatal("delete hint was not dropped — the scenario setup broke")
		}

		// Node 1 warm-restarts from its log: live value, no tombstone.
		l, err := net.Listen("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		b1r := NewBackend(1)
		if _, err := b1r.OpenData(dir, walTestOpts()); err != nil {
			t.Fatal(err)
		}
		go b1r.Serve(l)
		defer b1r.Close()
		consWaitServing(t, addr1)

		if mutate {
			testHooks.disableTombAuthority.Store(true)
			defer testHooks.disableTombAuthority.Store(false)
		}
		// THE read: node 0 answers first with the tombstone. Guarded,
		// that is the authoritative miss; mutated, the read falls through
		// to node 1's stale live copy.
		rk.GetV(key)

		// Quiesce: the filler hint drains once probes re-admit node 1,
		// and anti-entropy spreads the tombstone.
		consDrainHints(t, f)
		if _, err := f.RunRepairPass(); err != nil {
			t.Fatalf("repair pass: %v", err)
		}
		rec.MarkBarrier()
		consObserve(rec, f, consClients(t, []string{addr0, addr1}), []int{0, 1}, []string{key, "hint-filler"})

		h := rec.History()
		return consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h
	}

	t.Run("guarded", func(t *testing.T) {
		res, h := run(t, false)
		consRequireOK(t, "mutation-tomb-authority", "convergence", true, res, h)
	})
	t.Run("mutated", func(t *testing.T) {
		res, h := run(t, true)
		consRequireViolation(t, "mutation-tomb-authority", "convergence", true, res, h, "resurrected")
	})
}

// TestConsistencyMutationReadRepairDisabled: one replica restarts empty
// under a round-robin read policy, so half the reads consult it first,
// find a clean miss, and (guarded) schedule read repair that backfills
// it. With read repair disabled and anti-entropy off, the empty replica
// stays empty — and the post-barrier agreement check must call out the
// divergence. The recorded OPS are identical in both arms (the fan-in
// always finds the value on the sibling); only the replica observations
// betray the missing safeguard, which is exactly what they exist for.
func TestConsistencyMutationReadRepairDisabled(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(t *testing.T, mutate bool) (consistency.Result, consistency.History) {
		b0, addr0, err := StartBackend(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b0.Close()
		b1, addr1, err := StartBackend(1, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := StartFrontend(FrontendConfig{
			BackendAddrs: []string{addr0, addr1},
			Replication:  2, PartitionSeed: 37, WriteQuorum: 2,
			Selection:      SelectRoundRobin,
			Client:         ClientConfig{MaxRetries: -1},
			Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
			RepairInterval: -1, RepairRate: -1,
		}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		rec := consistency.NewRecorder()
		rk := consistency.NewRecordedKV(f, rec, kvConsErrs())
		keys := consKeys("rr", 6)
		for _, key := range keys {
			if _, err := rk.SetV(key, []byte("v-"+key)); err != nil {
				t.Fatal(err)
			}
		}

		// Node 1 restarts EMPTY (no log): the divergence read repair is
		// supposed to erase.
		b1.Close()
		l, err := net.Listen("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		b1r := NewBackend(1)
		go b1r.Serve(l)
		defer b1r.Close()
		consWaitServing(t, addr1)

		if mutate {
			testHooks.disableReadRepair.Store(true)
			defer testHooks.disableReadRepair.Store(false)
		}
		// Two reads per key: round-robin alternates the starting replica,
		// so one of each pair consults the empty node first and reports
		// the clean miss that triggers (or, mutated, fails to trigger)
		// repair. Both reads still return the value — the sibling holds it.
		for _, key := range keys {
			for i := 0; i < 2; i++ {
				if _, _, _, err := rk.GetV(key); err != nil {
					t.Fatalf("GetV(%s): %v", key, err)
				}
			}
		}
		if !mutate {
			deadline := time.Now().Add(5 * time.Second)
			for {
				healed := 0
				for _, key := range keys {
					if _, _, _, _, ok := b1r.Store().GetVersioned(key); ok {
						healed++
					}
				}
				if healed == len(keys) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("read repair backfilled %d/%d keys", healed, len(keys))
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		// Deliberately NO anti-entropy pass: read repair is the only
		// healer under test here.
		rec.MarkBarrier()
		consObserve(rec, f, consClients(t, []string{addr0, addr1}), []int{0, 1}, keys)

		h := rec.History()
		return consistency.CheckConvergence(h, consistency.ConvergenceOpts{StrictDeletes: true}), h
	}

	t.Run("guarded", func(t *testing.T) {
		res, h := run(t, false)
		consRequireOK(t, "mutation-read-repair", "convergence", true, res, h)
	})
	t.Run("mutated", func(t *testing.T) {
		res, h := run(t, true)
		consRequireViolation(t, "mutation-read-repair", "convergence", true, res, h, "disagreement")
	})
}
