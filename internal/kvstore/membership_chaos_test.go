package kvstore

// Elastic-membership chaos suite: the two end-to-end scenarios ISSUE 7
// promises. TestDrainCrashZeroLostWrites crashes a WAL-backed node in
// the middle of a drain and proves no acknowledged write is lost;
// TestScaleUnderAttack adds and drains nodes while an adversary who
// learned the seed concentrates load, and checks the realized
// normalized max load against the paper's Eq. 10 bound after each
// committed view — with a faultnet flap injected into every migration.
//
// Run standalone with `make membership`.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/core"
	"securecache/internal/faultnet"
	"securecache/internal/guard"
	"securecache/internal/partition"
)

// TestDrainCrashZeroLostWrites: a 5-node cluster with quorum writes
// drains node 4 while a writer keeps acknowledging Sets; mid-drain the
// WAL-backed node 3 crashes. The drain cannot commit while node 3 is
// down (its copies cannot all land), resumes when the node restarts and
// replays its log, and at the end every acknowledged write reads back
// its last acknowledged value — including on node 3's own store, whose
// replayed state converges into the post-change replica groups.
func TestDrainCrashZeroLostWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end drain-crash scenario")
	}
	const (
		n    = 5
		d    = 3
		m    = 300
		seed = 0xD4A1A
	)
	backends := make([]*Backend, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		b, addr, err := StartBackend(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[i], addrs[i] = b, addr
	}
	// Node 3 is the crash victim: durable via WAL so its disk state
	// survives the restart.
	walDir := t.TempDir()
	b3 := NewBackend(3)
	if _, err := b3.OpenData(walDir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	l3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr3 := l3.Addr().String()
	go b3.Serve(l3)
	backends[3], addrs[3] = b3, addr3

	f, _, err := StartFrontend(FrontendConfig{
		BackendAddrs:  addrs,
		Replication:   d,
		PartitionSeed: seed,
		WriteQuorum:   2,
		Client:        ClientConfig{ReadTimeout: 200 * time.Millisecond, MaxRetries: 2},
		Health:        HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		Rotation:      RotationConfig{Rate: 800, Burst: 16},
		Membership:    MembershipConfig{RetryDelay: 50 * time.Millisecond},
		// Anti-entropy on demand only: the convergence loop below drives
		// RunRepairPass explicitly so the test is deterministic.
		RepairInterval: -1,
		RepairRate:     -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// acked holds the ground truth: key -> last value whose Set returned
	// nil. Only acknowledged writes participate in the zero-loss claim.
	var ackedMu sync.Mutex
	acked := make(map[string][]byte)
	for i := 0; i < m; i++ {
		key, val := rotKey(i), rotVal(i, 0)
		if err := f.Set(key, val); err != nil {
			t.Fatal(err)
		}
		acked[key] = val
	}

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(11, 13))
		gen := 1
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var key string
			var val []byte
			if i%3 == 0 { // fresh key
				key, val = rotKey(1000+i), rotVal(1000+i, 0)
			} else { // overwrite a seeded key with a new generation
				j := rng.IntN(m)
				gen++
				key, val = rotKey(j), rotVal(j, gen)
			}
			// A Set error during the crash window is allowed (quorum may
			// transiently fail); an errored write makes no durability
			// promise and stays out of the model.
			if err := f.Set(key, val); err == nil {
				ackedMu.Lock()
				acked[key] = val
				ackedMu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	if _, err := f.Drain(4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// Crash node 3 mid-drain. Moves targeting it now fail, so the drain
	// must stall rather than commit a view whose data is under-replicated.
	b3.Close()
	time.Sleep(500 * time.Millisecond)
	if st := f.MembershipStatus(); !st.Changing {
		t.Fatal("drain committed while an active member was down")
	}
	// Restart: same identity, same address, state replayed from the WAL.
	var l3r net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		l3r, err = net.Listen("tcp", addr3)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten %s: %v", addr3, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b3r := NewBackend(3)
	if _, err := b3r.OpenData(walDir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	if liveKeyCount(b3r.Store()) == 0 {
		t.Fatal("restarted node replayed no WAL state")
	}
	go b3r.Serve(l3r)
	defer b3r.Close()
	backends[3] = b3r

	waitViewSettled(t, f, 30*time.Second)
	close(stop)
	wg.Wait()
	if err := writerErr.Load(); err != nil {
		t.Fatal(err)
	}

	st := f.MembershipStatus()
	if !equalIntSlices(st.Members, []int{0, 1, 2, 3}) {
		t.Fatalf("post-drain members %v, want [0 1 2 3]", st.Members)
	}
	if got := f.Metrics().Counter("membership_commits_total").Value(); got != 1 {
		t.Fatalf("membership_commits_total = %d, want 1", got)
	}
	if !f.health.retiredNode(4) {
		t.Fatal("drained node not retired")
	}

	// Zero lost writes, and full replication restored: every acked key
	// must read its last acked value AND be present with that value on
	// every member of its current group — node 3's WAL-replayed state
	// converging into the post-change groups via handoff + repair.
	ackedMu.Lock()
	model := make(map[string][]byte, len(acked))
	for k, v := range acked {
		model[k] = v
	}
	ackedMu.Unlock()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := f.RunRepairPass(); err != nil {
			t.Fatalf("repair pass: %v", err)
		}
		missing := ""
		for key, want := range model {
			if v, err := f.Get(key); err != nil || !bytes.Equal(v, want) {
				missing = fmt.Sprintf("read %s: %v %q, want %q", key, err, v, want)
				break
			}
			for _, node := range f.Group(key) {
				v, ok := backends[node].Store().Get(key)
				if !ok || !bytes.Equal(v, want) {
					missing = fmt.Sprintf("replica %d of %s: ok=%v %q, want %q", node, key, ok, v, want)
					break
				}
			}
			if missing != "" {
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked write not converged: %s", missing)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := liveKeyCount(backends[4].Store()); got != 0 {
		t.Fatalf("drained node still holds %d live keys", got)
	}
}

// TestScaleUnderAttack is the tentpole scenario: an adversary who
// learned the partition seed keeps a concentrated stream on one replica
// group while the operator joins two nodes and then drains one — each
// migration disrupted by a faultnet flap on an active member. Every
// committed view must re-derive the paper's provisioning (c* gauge) and
// bring the realized normalized max load below Eq. 10 for the new n,
// and a verifier proves no read ever fails or goes stale.
func TestScaleUnderAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end elastic-scaling scenario")
	}
	const (
		n0   = 7
		d    = 3
		m    = 600
		seed = 0x5CA1E5 // the "leaked" secret
	)
	backends := make([]*Backend, 9)
	addrs := make([]string, n0)
	for i := 0; i < n0; i++ {
		b, addr, err := StartBackend(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[i], addrs[i] = b, addr
	}
	// Node 4 sits behind a faultnet proxy so each migration can be
	// disrupted mid-flight.
	proxy, err := faultnet.Start(addrs[4])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	addrs[4] = proxy.Addr()

	// Cacheless on purpose: the bound check compares backend-observed
	// load to Eq. 10 with c = 0; a cache would absorb part of the offered
	// load and make the backend counters an underestimate. (Cache
	// re-provisioning on view changes is pinned by
	// TestAutoProvisionOnViewChange; here only the c* gauge is checked.)
	f, faddr, err := StartFrontend(FrontendConfig{
		BackendAddrs:   addrs,
		Replication:    d,
		PartitionSeed:  seed,
		Client:         ClientConfig{ReadTimeout: 200 * time.Millisecond, MaxRetries: 2},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		Rotation:       RotationConfig{Rate: -1},
		Membership:     MembershipConfig{RetryDelay: 50 * time.Millisecond},
		Provision:      ProvisionConfig{Items: m, KOverride: 1.2},
		RepairInterval: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	seedCl := NewClient(faddr)
	defer seedCl.Close()
	for i := 0; i < m; i++ {
		if err := seedCl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// The adversary computes replica groups offline with the leaked seed
	// and picks stored keys sharing one group. The bucket is capped so x
	// stays in the regime where Eq. 10 leaves slack for measurement
	// noise (the bound tightens as x grows).
	leaked := partition.NewHash(n0, d, seed)
	byGroup := make(map[string][]string)
	for i := 0; i < 300; i++ {
		key := rotKey(i)
		gk := groupKeyOf(leaked.Group(KeyID(key)))
		byGroup[gk] = append(byGroup[gk], key)
	}
	var attackKeys []string
	for _, keys := range byGroup {
		if len(keys) <= 12 && len(keys) > len(attackKeys) {
			attackKeys = keys
		}
	}
	x := len(attackKeys)
	if x < 4 {
		t.Fatalf("largest capped same-group key set has only %d keys; pick a different seed", x)
	}

	params := func(n int) core.Params {
		return core.Params{Nodes: n, Replication: d, Items: m, CacheSize: 0, KOverride: 1.2}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A pointer to the error, not the error itself: atomic.Value panics
	// when a CompareAndSwap stores a different dynamic type than before.
	var firstErr atomic.Pointer[error]
	recordErr := func(err error) { firstErr.CompareAndSwap(nil, &err) }

	// Attackers: the concentrated stream runs through every phase.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := NewClient(faddr)
			defer cl.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := attackKeys[rng.IntN(len(attackKeys))]
				if _, err := cl.Get(key); err != nil {
					recordErr(fmt.Errorf("attacker get %s: %w", key, err))
					return
				}
			}
		}(w)
	}

	// Verifier: owns keys 300..599 and models their expected state. Any
	// failed read, resurrected delete, or stale value is a correctness
	// bug in the view-change machinery.
	type verdict struct {
		gens    map[int]int
		deleted map[int]bool
		tainted map[int]bool
	}
	verifierDone := make(chan verdict, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := NewClient(faddr)
		defer cl.Close()
		rng := rand.New(rand.NewPCG(7, 7))
		gens := make(map[int]int)
		deleted := make(map[int]bool)
		// A mutation the cluster refused (e.g. a dual-generation write
		// that could not reach the flapped replica) makes no promise —
		// the key's state is indeterminate until a later acknowledged
		// mutation (with a higher version) supersedes the partial one.
		tainted := make(map[int]bool)
		defer func() { verifierDone <- verdict{gens: gens, deleted: deleted, tainted: tainted} }()
		// checkKey allows the quorum-write/single-read convergence window:
		// with W=2 a write acks while one replica (e.g. the flapped node)
		// still misses it, and a read served by that replica is behind
		// until hinted handoff flushes. A mismatch that survives the
		// window is a real violation; one that heals is the documented
		// eventual-consistency contract.
		checkKey := func(i int) error {
			key := rotKey(i)
			deadline := time.Now().Add(3 * time.Second)
			for {
				v, err := cl.Get(key)
				if deleted[i] {
					if errors.Is(err, ErrNotFound) {
						return nil
					}
				} else if err == nil && bytes.Equal(v, rotVal(i, gens[i])) {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("verifier: %s stuck at %v %q, want deleted=%v gen %d",
						key, err, v, deleted[i], gens[i])
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := 300 + rng.IntN(300)
			key := rotKey(i)
			switch op := rng.IntN(10); {
			case op < 3:
				next := gens[i] + 1
				if err := cl.Set(key, rotVal(i, next)); err != nil {
					tainted[i] = true
					break
				}
				gens[i] = next
				deleted[i] = false
				tainted[i] = false
			case op == 3:
				if err := cl.Del(key); err != nil {
					tainted[i] = true
					break
				}
				deleted[i] = true
				tainted[i] = false
			default:
				if tainted[i] {
					break
				}
				if err := checkKey(i); err != nil {
					recordErr(err)
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// window aggregates one duration of per-member request deltas, in
	// member order — the shape `secctl guard` feeds the guard.
	window := func(members []int, dur time.Duration) []float64 {
		prev := make([]uint64, len(members))
		for i, id := range members {
			prev[i] = backends[id].Metrics().Counter("requests_total").Value()
		}
		time.Sleep(dur)
		loads := make([]float64, len(members))
		for i, id := range members {
			loads[i] = float64(backends[id].Metrics().Counter("requests_total").Value() - prev[i])
		}
		return loads
	}
	// flap disrupts node 4 mid-migration: refuse new connections,
	// blackhole nothing-in-flight, cut existing conns — then heal.
	flap := func() {
		proxy.SetFaults(faultnet.Faults{RejectConns: true, Blackhole: true})
		proxy.CloseExisting()
		time.Sleep(300 * time.Millisecond)
		proxy.Clear()
	}

	// Phase 0: the attack concentrates on d of n0 nodes (ideal n/d ≈
	// 2.33 here) — this is the condition scaling must answer.
	g7, err := guard.New(guard.Config{Params: params(n0), Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs0, err := g7.Observe(window([]int{0, 1, 2, 3, 4, 5, 6}, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if obs0.NormalizedMax <= 1.8 {
		t.Fatalf("pre-join attack concentration %v, want > 1.8", obs0.NormalizedMax)
	}

	// Phase 1: join two nodes while the attack runs, flapping node 4
	// mid-fill. The migration must ride through the fault and commit.
	b7, a7, err := StartBackend(7, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b7.Close()
	b8, a8, err := StartBackend(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b8.Close()
	backends[7], backends[8] = b7, b8
	report, err := f.Join(a7, a8)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Joined) != 2 || report.Joined[0].ID != 7 || report.Joined[1].ID != 8 {
		t.Fatalf("join report %+v, want IDs 7 and 8", report.Joined)
	}
	flap()
	waitViewSettled(t, f, 60*time.Second)
	st := f.MembershipStatus()
	members9 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if st.Version != 2 || !equalIntSlices(st.Members, members9) {
		t.Fatalf("post-join status v%d members %v, want v2 %v", st.Version, st.Members, members9)
	}
	p9 := params(9)
	if got := f.Metrics().Gauge("provision_cstar").Value(); got != int64(p9.RequiredCacheSize()) {
		t.Fatalf("provision_cstar = %d, want %d", got, p9.RequiredCacheSize())
	}
	// The new mapping scatters the attacker's key set: realized load must
	// fall below Eq. 10 for x keys at n=9, and out of the critical band.
	g9, err := guard.New(guard.Config{Params: p9, Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs9, err := g9.Observe(window(members9, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if bound := p9.BoundNormalizedMaxLoad(x); obs9.NormalizedMax >= bound {
		t.Fatalf("post-join normalized max %v, want < Eq.10 bound %v (x=%d, n=9)",
			obs9.NormalizedMax, bound, x)
	}
	if obs9.Verdict == guard.VerdictCritical {
		t.Fatalf("post-join verdict still critical: %+v", obs9)
	}

	// Phase 2: drain node 1 under the same attack, flapping node 4 again.
	if _, err := f.Drain(1); err != nil {
		t.Fatal(err)
	}
	flap()
	waitViewSettled(t, f, 60*time.Second)
	st = f.MembershipStatus()
	members8 := []int{0, 2, 3, 4, 5, 6, 7, 8}
	if st.Version != 3 || !equalIntSlices(st.Members, members8) {
		t.Fatalf("post-drain status v%d members %v, want v3 %v", st.Version, st.Members, members8)
	}
	p8 := params(8)
	if got := f.Metrics().Gauge("provision_cstar").Value(); got != int64(p8.RequiredCacheSize()) {
		t.Fatalf("provision_cstar = %d, want %d", got, p8.RequiredCacheSize())
	}
	if !f.health.retiredNode(1) {
		t.Fatal("drained node not retired")
	}
	if got := liveKeyCount(backends[1].Store()); got != 0 {
		t.Fatalf("drained node still holds %d live keys", got)
	}
	g8, err := guard.New(guard.Config{Params: p8, Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs8, err := g8.Observe(window(members8, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if bound := p8.BoundNormalizedMaxLoad(x); obs8.NormalizedMax >= bound {
		t.Fatalf("post-drain normalized max %v, want < Eq.10 bound %v (x=%d, n=8)",
			obs8.NormalizedMax, bound, x)
	}

	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("correctness violation during the episode: %v", *err)
	}
	model := <-verifierDone

	// Full sweep: after two view changes and two faultnet flaps, every
	// key holds exactly what the model says. Anti-entropy passes first,
	// so a replica that missed a last-moment quorum write has converged
	// and the sweep can be strict.
	sweep := func() (string, bool) {
		for i := 0; i < m; i++ {
			if model.tainted[i] {
				continue // last mutation was refused; state is indeterminate
			}
			key := rotKey(i)
			want := rotVal(i, 0)
			wantDeleted := false
			if i >= 300 {
				want = rotVal(i, model.gens[i])
				wantDeleted = model.deleted[i]
			}
			v, err := seedCl.Get(key)
			if wantDeleted {
				if !errors.Is(err, ErrNotFound) {
					return fmt.Sprintf("deleted %s present: %v %q", key, err, v), false
				}
				continue
			}
			if err != nil || !bytes.Equal(v, want) {
				return fmt.Sprintf("%s = %v %q, want %q", key, err, v, want), false
			}
		}
		return "", true
	}
	sweepDeadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := f.RunRepairPass(); err != nil {
			t.Fatalf("repair pass: %v", err)
		}
		mismatch, clean := sweep()
		if clean {
			break
		}
		if time.Now().After(sweepDeadline) {
			t.Fatalf("final sweep never converged: %s", mismatch)
		}
		time.Sleep(100 * time.Millisecond)
	}

	reg := f.Metrics()
	if got := reg.Counter("membership_commits_total").Value(); got != 2 {
		t.Fatalf("membership_commits_total = %d, want 2", got)
	}
	if got := reg.Counter("membership_aborts_total").Value(); got != 0 {
		t.Fatalf("membership_aborts_total = %d, want 0", got)
	}
	if got := reg.Gauge("partition_epoch").Value(); got != 3 {
		t.Fatalf("partition_epoch = %d, want 3", got)
	}
}
