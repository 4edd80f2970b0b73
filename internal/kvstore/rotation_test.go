package kvstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/core"
	"securecache/internal/guard"
	"securecache/internal/partition"
	"securecache/internal/rotation"
)

func rotKey(i int) string { return fmt.Sprintf("key-%03d", i) }

func rotVal(i, gen int) []byte { return []byte(fmt.Sprintf("value-%d-gen-%d", i, gen)) }

// waitRotated polls until the frontend reports no rotation in flight.
func waitRotated(t *testing.T, f *Frontend, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := f.RotationStatus(); !st.Rotating {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rotation still open after %v: %+v", timeout, f.RotationStatus())
}

func TestFrontendRotateBasic(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 11,
		Rotation:      RotationConfig{Rate: -1}, // unlimited: this test is about correctness
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const m = 80
	cl := NewClient(lc.FrontendAddr)
	defer cl.Close()
	for i := 0; i < m; i++ {
		if err := cl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	oldGroups := make(map[string][]int, m)
	for i := 0; i < m; i++ {
		oldGroups[rotKey(i)] = f.Group(rotKey(i))
	}

	report, err := f.Rotate(12)
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 2 {
		t.Fatalf("rotation epoch %d, want 2", report.Epoch)
	}
	// A seed change of a plain hash partitioner reshuffles nearly every
	// group — that full reshuffle is what restores secrecy.
	if report.ExpectedMovedFraction < 0.8 {
		t.Fatalf("expected moved fraction %v, want near 1", report.ExpectedMovedFraction)
	}

	// Every key must stay readable while the migration runs and after.
	for i := 0; i < m; i++ {
		v, err := cl.Get(rotKey(i))
		if err != nil {
			t.Fatalf("mid-rotation get %s: %v", rotKey(i), err)
		}
		if !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("mid-rotation get %s = %q", rotKey(i), v)
		}
	}

	waitRotated(t, f, 10*time.Second)
	st := f.RotationStatus()
	if st.Epoch != 2 || st.Completed != 1 {
		t.Fatalf("status after commit: %+v", st)
	}
	if st.Moved == 0 && f.Metrics().Counter("rotation_read_repair_total").Value() == 0 {
		t.Fatal("nothing migrated and nothing repaired, yet groups changed")
	}

	// Post-commit: reads still correct, groups actually changed for most
	// keys, and the old-generation nodes no longer hold moved keys (the
	// store was drained, not duplicated).
	changed := 0
	for i := 0; i < m; i++ {
		key := rotKey(i)
		v, err := cl.Get(key)
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("post-rotation get %s: %v %q", key, err, v)
		}
		if !sameNodeSet(oldGroups[key], f.Group(key)) {
			changed++
		}
	}
	if changed < m/2 {
		t.Fatalf("only %d/%d groups changed after seed rotation", changed, m)
	}
	for i := 0; i < m; i++ {
		key := rotKey(i)
		newGroup := f.Group(key)
		for node := range lc.Backends {
			_, held := lc.Backends[node].Store().Get(key)
			if held && !containsNode(newGroup, node) {
				t.Fatalf("key %s still on node %d outside its new group %v", key, node, newGroup)
			}
			if !held && containsNode(newGroup, node) {
				t.Fatalf("key %s missing from new-group node %d", key, node)
			}
		}
	}

	if f.Metrics().Gauge("partition_epoch").Value() != 2 {
		t.Fatalf("partition_epoch gauge = %d", f.Metrics().Gauge("partition_epoch").Value())
	}
}

func TestFrontendRotateRejectsConcurrent(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 21,
		// Throttle hard so the first rotation is still open when the
		// second request arrives.
		Rotation: RotationConfig{Rate: 20, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl := NewClient(lc.FrontendAddr)
	defer cl.Close()
	for i := 0; i < 40; i++ {
		if err := cl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lc.Frontend.Rotate(22); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Frontend.Rotate(23); !errors.Is(err, ErrRotationInProgress) {
		t.Fatalf("second Rotate: %v, want ErrRotationInProgress", err)
	}
}

func TestFrontendRotateDeleteDuringMigration(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 31,
		Rotation:      RotationConfig{Rate: 200, Burst: 1}, // slow enough to race against
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	cl := NewClient(lc.FrontendAddr)
	defer cl.Close()
	const m = 60
	for i := 0; i < m; i++ {
		if err := cl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Rotate(32); err != nil {
		t.Fatal(err)
	}
	// Delete and overwrite keys while the migrator is mid-flight: deletes
	// must not resurrect, overwrites must not be clobbered by stale
	// migration copies.
	for i := 0; i < m; i += 3 {
		if err := cl.Del(rotKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < m; i += 3 {
		if err := cl.Set(rotKey(i), rotVal(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitRotated(t, f, 20*time.Second)
	for i := 0; i < m; i++ {
		v, err := cl.Get(rotKey(i))
		switch i % 3 {
		case 0:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %s resurrected: %v %q", rotKey(i), err, v)
			}
		case 1:
			if err != nil || !bytes.Equal(v, rotVal(i, 1)) {
				t.Fatalf("overwritten key %s: %v %q", rotKey(i), err, v)
			}
		default:
			if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
				t.Fatalf("untouched key %s: %v %q", rotKey(i), err, v)
			}
		}
	}
}

func TestRotationAdminEndpoints(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 41,
		Admin:         true,
		Rotation:      RotationConfig{Rate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl := NewClient(lc.FrontendAddr)
	defer cl.Close()
	for i := 0; i < 30; i++ {
		if err := cl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + lc.AdminAddr

	// GET on the control verb must be refused.
	resp, err := http.Get(base + "/rotate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rotate -> %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/rotate?seed=0x42", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var report RotationReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || report.Epoch != 2 {
		t.Fatalf("POST /rotate -> %d, report %+v", resp.StatusCode, report)
	}

	waitRotated(t, lc.Frontend, 10*time.Second)
	resp, err = http.Get(base + "/rotation")
	if err != nil {
		t.Fatal(err)
	}
	var st RotationStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Epoch != 2 || st.Rotating || st.Completed != 1 {
		t.Fatalf("GET /rotation -> %+v", st)
	}

	// The Prometheus rendering of the same registry must carry the epoch.
	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("partition_epoch 2")) {
		t.Fatalf("prom metrics missing partition_epoch 2:\n%s", buf.String())
	}
}

// groupKeyOf canonicalizes a replica group for use as a map key.
func groupKeyOf(g []int) string {
	s := append([]int(nil), g...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

func sameNodeSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	return groupKeyOf(a) == groupKeyOf(b)
}

// TestRotateUnderAttack is the end-to-end story of this subsystem: an
// adversary who has learned the partition seed concentrates its stream
// on one replica group, the guard detects the skew, the responder
// triggers a rotation through the admin surface, and the migration
// restores the normalized max load below the paper's Eq. 10 bound —
// all while a verifier proves no read ever fails or returns a stale
// value.
func TestRotateUnderAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end rotation scenario")
	}
	const (
		n       = 8
		d       = 3
		m       = 600
		oldSeed = 0x5EC12E7 // the "leaked" secret
		// Migration throttle: slow enough that the rate limit is
		// observable, fast enough that the test stays quick.
		migRate  = 1500.0
		migBurst = 64
	)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         n,
		Replication:   d,
		PartitionSeed: oldSeed,
		Admin:         true,
		Rotation:      RotationConfig{Rate: migRate, Burst: migBurst},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	seedCl := NewClient(lc.FrontendAddr)
	defer seedCl.Close()
	for i := 0; i < m; i++ {
		if err := seedCl.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// The adversary's move: with the leaked seed it computes every key's
	// replica group offline and picks stored keys that all share one
	// group, so its whole stream lands on d nodes no matter which
	// replica the frontend selects. Keys are drawn from the 0..299 range
	// the verifier never mutates, so the attacker can even check the
	// responses it gets.
	leaked := partition.NewHash(n, d, oldSeed)
	byGroup := make(map[string][]string)
	for i := 0; i < 300; i++ {
		key := rotKey(i)
		gk := groupKeyOf(leaked.Group(KeyID(key)))
		byGroup[gk] = append(byGroup[gk], key)
	}
	var attackKeys []string
	for _, keys := range byGroup {
		if len(keys) > len(attackKeys) {
			attackKeys = keys
		}
	}
	x := len(attackKeys)
	if x < 4 {
		t.Fatalf("largest same-group key set has only %d keys; pick a different seed", x)
	}

	params := core.Params{Nodes: n, Replication: d, Items: m, CacheSize: 0, KOverride: 1.2}
	bound := params.BoundNormalizedMaxLoad(x)
	g, err := guard.New(guard.Config{Params: params, Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The responder drives the rotation through the admin verb, exactly
	// as `secctl guard -respond` does in a real deployment. No seed
	// parameter: the new secret comes from the frontend's own entropy.
	rotateURL := "http://" + lc.AdminAddr + "/rotate"
	responder, err := rotation.NewResponder(rotation.ResponderConfig{
		Windows:  2,
		Cooldown: time.Minute,
		Rotate: func() error {
			resp, err := http.Post(rotateURL, "", nil)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("rotate: HTTP %d", resp.StatusCode)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Value // error

	recordErr := func(err error) {
		firstErr.CompareAndSwap(nil, err)
	}

	// Attackers: 6 goroutines hammering the same-group keys. Reads must
	// keep succeeding with the seeded values through the whole episode —
	// rotation defends the cluster, not by failing the attacker's keys
	// (they are legitimate keys other clients may share).
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := NewClient(lc.FrontendAddr)
			defer cl.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
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

	// Verifier: owns keys 300..599 and maintains the expected value of
	// each. Any failed read, resurrected delete, or stale value is a
	// correctness bug in the migration.
	type verdict struct {
		gens    map[int]int
		deleted map[int]bool
	}
	verifierDone := make(chan verdict, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := NewClient(lc.FrontendAddr)
		defer cl.Close()
		rng := rand.New(rand.NewPCG(7, 7))
		gens := make(map[int]int)
		deleted := make(map[int]bool)
		defer func() { verifierDone <- verdict{gens: gens, deleted: deleted} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := 300 + rng.IntN(300)
			key := rotKey(i)
			switch op := rng.IntN(10); {
			case op < 3: // overwrite
				gens[i]++
				deleted[i] = false
				if err := cl.Set(key, rotVal(i, gens[i])); err != nil {
					recordErr(fmt.Errorf("verifier set %s: %w", key, err))
					return
				}
			case op == 3: // delete
				deleted[i] = true
				if err := cl.Del(key); err != nil {
					recordErr(fmt.Errorf("verifier del %s: %w", key, err))
					return
				}
			default: // read and check against the model
				v, err := cl.Get(key)
				if deleted[i] {
					if !errors.Is(err, ErrNotFound) {
						recordErr(fmt.Errorf("verifier: deleted %s came back: %v %q", key, err, v))
						return
					}
				} else if err != nil {
					recordErr(fmt.Errorf("verifier get %s: %w", key, err))
					return
				} else if want := rotVal(i, gens[i]); !bytes.Equal(v, want) {
					recordErr(fmt.Errorf("verifier: stale %s: got %q want %q", key, v, want))
					return
				}
			}
			// Light throttle so attack traffic dominates the load shape.
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Detection loop: 100ms windows over per-backend request deltas, the
	// same signal `secctl guard` scrapes in production.
	window := func(prev []uint64) ([]uint64, []float64) {
		cur := lc.BackendRequestCounts()
		loads := make([]float64, len(cur))
		for i := range cur {
			loads[i] = float64(cur[i] - prev[i])
		}
		return cur, loads
	}
	prev := lc.BackendRequestCounts()
	var fireObs guard.Observation
	fired := false
	deadline := time.Now().Add(20 * time.Second)
	for !fired {
		if time.Now().After(deadline) {
			t.Fatalf("detector never fired; last obs %+v, err=%v", fireObs, firstErr.Load())
		}
		time.Sleep(100 * time.Millisecond)
		var loads []float64
		prev, loads = window(prev)
		obs, err := g.Observe(loads)
		if err != nil {
			t.Fatal(err)
		}
		fireObs = obs
		fired, err = responder.Observe(obs)
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
	}
	// The attack must actually have breached the critical gain — that is
	// what the rotation is answering.
	if fireObs.Verdict != guard.VerdictCritical {
		t.Fatalf("fired on verdict %q", fireObs.Verdict)
	}
	if fireObs.NormalizedMax <= 2.0 {
		t.Fatalf("fired at normalized max %v, want > critical 2.0", fireObs.NormalizedMax)
	}
	rotateStart := time.Now()

	// Wait out the migration through the public status endpoint.
	statusURL := "http://" + lc.AdminAddr + "/rotation"
	var st RotationStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("migration never finished: %+v", st)
		}
		resp, err := http.Get(statusURL)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Rotating && st.Epoch == 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	migDuration := time.Since(rotateStart)
	if st.Completed != 1 {
		t.Fatalf("completed rotations = %d", st.Completed)
	}
	// The migrator's moves must have respected the overload throttle:
	// moving `moved` keys at migRate/s cannot finish faster than the
	// token bucket admits (minus the burst, with scheduling slack).
	if st.Moved > migBurst {
		floor := time.Duration(float64(st.Moved-migBurst) / migRate * 0.7 * float64(time.Second))
		if migDuration < floor {
			t.Fatalf("migrated %d keys in %v, floor %v: rate limit not applied", st.Moved, migDuration, floor)
		}
	}

	// Post-rotation: with the secret re-established, the adversary's key
	// set is just x random keys again; the realized attack gain must sit
	// below the Eq. 10 bound for x. One aggregate 1s window keeps the
	// estimate stable. The attack is still running through all of this.
	prev = lc.BackendRequestCounts()
	time.Sleep(1 * time.Second)
	_, loads := window(prev)
	post, err := g.Observe(loads)
	if err != nil {
		t.Fatal(err)
	}
	if post.NormalizedMax >= bound {
		t.Fatalf("post-rotation normalized max %v, want < Eq.10 bound %v (x=%d)",
			post.NormalizedMax, bound, x)
	}

	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("correctness violation during the episode: %v", err)
	}
	model := <-verifierDone

	// Full sweep: every key in the store must hold exactly what the
	// model says, including the untouched 0..299 range.
	for i := 0; i < m; i++ {
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
				t.Fatalf("sweep: deleted %s present: %v %q", key, err, v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("sweep get %s: %v", key, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("sweep: %s = %q, want %q", key, v, want)
		}
	}

	if got := lc.Frontend.Metrics().Gauge("partition_epoch").Value(); got != 2 {
		t.Fatalf("partition_epoch = %d after the episode", got)
	}
}
