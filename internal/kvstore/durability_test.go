package kvstore

// Durability suite: versioned quorum writes, hinted handoff, read
// repair, and anti-entropy, capped by a crash-restart chaos scenario
// (run under -race, like the rest of the chaos suite). The regression
// tests pin the three failure shapes the versioning work closed:
//
//   - a Set that reaches only part of its group must not produce a
//     permanently stale replica (hinted handoff converges it)
//   - a Del that reaches only part of its group must not let the
//     lagging replica resurrect the key (tombstones out-version values)
//   - a replica that restarts empty must not mask the key held by its
//     siblings with a clean NotFound (reads consult the whole group)

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/core"
	"securecache/internal/faultnet"
)

func TestWriteQuorumDefaultsAndValidation(t *testing.T) {
	cases := []struct {
		configured, replication int
		want                    int
		wantErr                 bool
	}{
		{0, 1, 1, false}, // majority default ⌈(d+1)/2⌉
		{0, 2, 2, false},
		{0, 3, 2, false},
		{0, 4, 3, false},
		{0, 5, 3, false},
		{1, 3, 1, false},
		{3, 3, 3, false},
		{4, 3, 0, true}, // above d
		{-1, 3, 0, true},
	}
	for _, c := range cases {
		got, err := writeQuorumFor(c.configured, c.replication)
		if c.wantErr != (err != nil) || got != c.want {
			t.Errorf("writeQuorumFor(%d, %d) = %d, %v; want %d, wantErr=%v",
				c.configured, c.replication, got, err, c.want, c.wantErr)
		}
	}
	// The config path surfaces the same validation.
	if _, err := NewFrontend(FrontendConfig{
		BackendAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"},
		Replication:  2,
		WriteQuorum:  3,
	}); err == nil {
		t.Fatal("NewFrontend accepted a write quorum above d")
	}
}

// crashableCluster starts nodes backends with node 2 behind a faultnet
// proxy, so tests can crash and restart it: the frontend always dials
// the proxy (which keeps listening and cleanly refuses during the
// outage), never the real address of a dead node — dialing a closed
// loopback port can self-connect (simultaneous open) and steal the port
// from the restart.
func crashableCluster(t *testing.T, nodes int) (backends []*Backend, addrs []string, proxy *faultnet.Proxy, crashAddr string) {
	t.Helper()
	for i := 0; i < nodes; i++ {
		b, addr, err := StartBackend(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
		addrs = append(addrs, addr)
	}
	crashAddr = addrs[2]
	proxy, err := faultnet.Start(crashAddr)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = proxy.Addr()
	return backends, addrs, proxy, crashAddr
}

// crashNode2 makes node 2 unreachable (refuse new connections, sever
// established ones) and kills its process.
func crashNode2(backends []*Backend, proxy *faultnet.Proxy) {
	proxy.SetFaults(faultnet.Faults{Blackhole: true, RejectConns: true})
	proxy.CloseExisting()
	backends[2].Close()
}

// restartNode2 rebinds node 2's original address (retrying out the
// close/rebind race) and heals the proxy.
func restartNode2(t *testing.T, backends []*Backend, proxy *faultnet.Proxy, crashAddr string) *Backend {
	t.Helper()
	b2 := NewBackend(2)
	serveBackend(t, b2, crashAddr)
	backends[2] = b2
	proxy.Clear()
	return b2
}

// TestSetQuorumWithDeadReplicaAndHintedHandoff: a write with one dead
// replica of three succeeds at the default quorum (W=2), queues a hint
// for the dead node, and replays it once the node is back — even though
// the node comes back EMPTY.
func TestSetQuorumWithDeadReplicaAndHintedHandoff(t *testing.T) {
	checkGoroutineLeaks(t)
	backends, addrs, proxy, crashAddr := crashableCluster(t, 3)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	defer proxy.Close()
	f, err := NewFrontend(FrontendConfig{
		BackendAddrs:   addrs,
		Replication:    3, // W defaults to 2
		PartitionSeed:  11,
		Client:         ClientConfig{MaxRetries: -1, DialTimeout: 200 * time.Millisecond},
		Health:         HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	crashNode2(backends, proxy)
	key := testKeyName(0)
	want := []byte("survives-one-dead-replica")
	if err := f.Set(key, want); err != nil {
		t.Fatalf("set with one dead replica: %v", err)
	}
	for i := 0; i < 2; i++ {
		if v, ok := backends[i].Store().Get(key); !ok || !bytes.Equal(v, want) {
			t.Fatalf("node %d after quorum set: %q (ok=%v)", i, v, ok)
		}
	}
	if got := f.hints.Total(); got != 1 {
		t.Fatalf("hints pending = %d, want 1", got)
	}
	if got := f.metrics.Counter("hints_queued_total").Value(); got != 1 {
		t.Fatalf("hints_queued_total = %d, want 1", got)
	}

	// Restart node 2 empty on the same address: the probe loop closes
	// its breaker and the drain loop replays the hint.
	b2 := restartNode2(t, backends, proxy, crashAddr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := b2.Store().Get(key)
		if ok && bytes.Equal(v, want) && f.hints.Total() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hint never replayed: pending=%d, node value %q (ok=%v)",
				f.hints.Total(), v, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.metrics.Counter("hints_replayed_total").Value(); got != 1 {
		t.Fatalf("hints_replayed_total = %d, want 1", got)
	}
}

// TestSetBelowQuorumFails: with W=d and one replica dead, the write
// must report failure and drop the (now ambiguous) cached entry.
func TestSetBelowQuorumFails(t *testing.T) {
	checkGoroutineLeaks(t)
	backends, addrs, proxy, _ := crashableCluster(t, 3)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	defer proxy.Close()
	c, err := cache.New(cache.Kind("lru"), 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontend(FrontendConfig{
		BackendAddrs:   addrs,
		Replication:    3,
		WriteQuorum:    3,
		PartitionSeed:  13,
		Cache:          c,
		Client:         ClientConfig{MaxRetries: -1, DialTimeout: 200 * time.Millisecond},
		Health:         HealthConfig{FailureThreshold: 2, ProbeInterval: time.Hour},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	key := testKeyName(1)
	if err := f.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(key); err != nil { // fills the cache
		t.Fatal(err)
	}
	if _, _, ok := f.cacheGet(key); !ok {
		t.Fatal("key not cached after read")
	}

	crashNode2(backends, proxy)
	err = f.Set(key, []byte("new"))
	if err == nil {
		t.Fatal("set succeeded below quorum")
	}
	if !strings.Contains(err.Error(), "need 3") {
		t.Fatalf("quorum error does not carry the ack count: %v", err)
	}
	if _, _, ok := f.cacheGet(key); ok {
		t.Fatal("below-quorum write left its stale cached entry in place")
	}
	// Availability over atomicity: the surviving replicas keep the write
	// (its version ordering prevents any rollback of newer data).
	if v, ok := backends[0].Store().Get(key); !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("surviving replica rolled back the partial write: %q (ok=%v)", v, ok)
	}
}

// TestEmptyReplicaDoesNotMaskSiblings pins the empty-restart regression:
// a replica that answers a clean NotFound first in the read order must
// not mask the key its siblings hold, and read repair must refill it.
func TestEmptyReplicaDoesNotMaskSiblings(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:          2,
		Replication:    2,
		PartitionSeed:  5,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	key := testKeyName(2)
	want := chaosValue(2)
	lc.Backends[1].Store().SetVersioned(key, want, 0, 42)

	// Force the empty replica first: the read must keep going and find
	// the sibling's copy.
	v, _, err := f.fetchGroupVersioned(key, []int{0, 1})
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("fetch = %q, %v; empty replica masked its sibling", v, err)
	}
	// The empty replica is refilled asynchronously by read repair.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rv, _, ver, tomb, ok := lc.Backends[0].Store().GetVersioned(key)
		if ok && !tomb && ver == 42 && bytes.Equal(rv, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read repair never refilled node 0: %q ver=%d tomb=%v ok=%v", rv, ver, tomb, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.metrics.Counter("read_repair_total").Value(); got != 1 {
		t.Fatalf("read_repair_total = %d, want 1", got)
	}
	// Through the public read path the key is visible no matter which
	// replica the selection policy tries first.
	if v, err := f.Get(key); err != nil || !bytes.Equal(v, want) {
		t.Fatalf("public get = %q, %v", v, err)
	}
}

// TestTombstoneSuppressesSiblingValue: a tombstone is an authoritative
// miss — the read must NOT fall through to a sibling still holding the
// (older) live value.
func TestTombstoneSuppressesSiblingValue(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:          2,
		Replication:    2,
		PartitionSeed:  7,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	key := testKeyName(3)
	lc.Backends[0].Store().DeleteVersioned(key, 0, 50)
	lc.Backends[1].Store().SetVersioned(key, chaosValue(3), 0, 40)

	if v, _, err := lc.Frontend.fetchGroupVersioned(key, []int{0, 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstoned key served from stale sibling: %q, %v", v, err)
	}
}

// TestPartialDelCannotResurrect pins the resurrection regression: one
// replica missed a Del and still holds the value at a lower version.
// Anti-entropy must propagate the tombstone (not the value) and the key
// must stay deleted.
func TestPartialDelCannotResurrect(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:          2,
		Replication:    2,
		PartitionSeed:  9,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1,
		RepairRate:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	key := testKeyName(4)
	// Node 0 saw the Del (tombstone at ver 10); node 1 missed it and
	// still holds the value at ver 5.
	lc.Backends[0].Store().DeleteVersioned(key, 0, 10)
	lc.Backends[1].Store().SetVersioned(key, chaosValue(4), 0, 5)

	n, err := lc.Frontend.RunRepairPass()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("anti-entropy saw no divergence")
	}
	if _, _, ver, tomb, ok := lc.Backends[1].Store().GetVersioned(key); !ok || !tomb || ver != 10 {
		t.Fatalf("node 1 not tombstoned after repair: ver=%d tomb=%v ok=%v", ver, tomb, ok)
	}
	if v, err := lc.Frontend.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %q, %v", v, err)
	}
	// Convergence: a second pass finds nothing to do.
	if n, err := lc.Frontend.RunRepairPass(); err != nil || n != 0 {
		t.Fatalf("second pass repaired %d, %v; want 0, nil", n, err)
	}
}

// TestStaleReplicaConvergesAfterPartialSet pins the stale-read
// regression end to end, through the node's write-ahead log: a replica
// crashes with the OLD value in its log, misses an overwrite, restarts
// from its data dir (stale, not empty), and the queued hint must
// out-version the replayed entry and converge it.
func TestStaleReplicaConvergesAfterPartialSet(t *testing.T) {
	checkGoroutineLeaks(t)
	backends, addrs, proxy, crashAddr := crashableCluster(t, 3)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	defer proxy.Close()
	// Node 2 runs durable. No request has reached it yet, so attaching
	// the log now is the same as attaching it before Serve.
	dataDir := filepath.Join(t.TempDir(), "node2")
	if _, err := backends[2].OpenData(dataDir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontend(FrontendConfig{
		BackendAddrs:   addrs,
		Replication:    3, // W defaults to 2
		PartitionSeed:  17,
		Client:         ClientConfig{MaxRetries: -1, DialTimeout: 200 * time.Millisecond},
		Health:         HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	key := testKeyName(5)
	if err := f.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	_, _, oldVer, _, ok := backends[2].Store().GetVersioned(key)
	if !ok || oldVer == 0 {
		t.Fatalf("node 2 missing the seeded write (ok=%v ver=%d)", ok, oldVer)
	}
	// kill -9: node 2 becomes unreachable and its process dies without
	// closing (or fsyncing) the log.
	proxy.SetFaults(faultnet.Faults{Blackhole: true, RejectConns: true})
	proxy.CloseExisting()
	backends[2].Server().Close()

	// The overwrite reaches only the two survivors: quorum met, hint
	// queued for node 2.
	if err := f.Set(key, []byte("new")); err != nil {
		t.Fatalf("set with one crashed replica: %v", err)
	}
	if f.hints.Total() == 0 {
		t.Fatal("no hint queued for the crashed replica")
	}

	// Restart node 2 from its data dir: it replays "old" — at its
	// original version, which is what lets the hint win
	// deterministically.
	b2 := NewBackend(2)
	if _, err := b2.OpenData(dataDir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	if v, _, ver, _, ok := b2.Store().GetVersioned(key); !ok || ver != oldVer || !bytes.Equal(v, []byte("old")) {
		t.Fatalf("WAL replay lost version fidelity: %q ver=%d ok=%v (want %q ver=%d)",
			v, ver, ok, "old", oldVer)
	}
	serveBackend(t, b2, crashAddr)
	backends[2] = b2
	proxy.Clear()

	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := b2.Store().Get(key)
		if ok && bytes.Equal(v, []byte("new")) && f.hints.Total() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale replica never converged: %q (ok=%v), %d hints pending",
				v, ok, f.hints.Total())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, err := f.Get(key); err != nil || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("converged get = %q, %v", v, err)
	}
}

// TestChaosReplicaRepairAfterCrashRestart is the durability acceptance
// scenario: a replica is crashed mid-workload (faultnet severs its
// flows, the process dies) and restarted EMPTY, and the cluster must
// (a) keep serving quorum writes and correct reads throughout, (b)
// converge the empty replica via hinted handoff and anti-entropy —
// including tombstones, so nothing is resurrected — and (c) return to
// a load balance within the paper's Eq. 10 bound.
func TestChaosReplicaRepairAfterCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end crash-restart scenario")
	}
	checkGoroutineLeaks(t)
	const (
		n = 5
		d = 3
		m = 30
	)
	backends, addrs, proxy, crashAddr := crashableCluster(t, n)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	defer proxy.Close()

	f, err := NewFrontend(FrontendConfig{
		BackendAddrs:  addrs,
		Replication:   d, // W defaults to 2
		PartitionSeed: 0xD15EA5E,
		Client: ClientConfig{
			MaxRetries:  -1,
			DialTimeout: 200 * time.Millisecond,
			ReadTimeout: 250 * time.Millisecond,
		},
		Health:         HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, // the test forces passes explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	gen0 := chaosValue
	gen1 := func(i int) []byte { return []byte("gen1-of-" + testKeyName(i)) }
	for i := 0; i < m; i++ {
		if err := f.Set(testKeyName(i), gen0(i)); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}

	// Keys whose group includes the crash node: the first three are
	// deleted mid-outage (their tombstones must survive the repair);
	// every other key is overwritten.
	var onNode2 []int
	for i := 0; i < m; i++ {
		if containsNode(f.Group(testKeyName(i)), 2) {
			onNode2 = append(onNode2, i)
		}
	}
	if len(onNode2) < 4 {
		t.Fatalf("only %d keys map to node 2; pick another seed", len(onNode2))
	}
	delSet := map[int]bool{onNode2[0]: true, onNode2[1]: true, onNode2[2]: true}
	var readable []int
	for i := 0; i < m; i++ {
		if !delSet[i] {
			readable = append(readable, i)
		}
	}

	// Concurrent readers run through crash, outage, restart, and
	// convergence: no read of a live key may ever hard-fail or return a
	// value outside {gen0, gen1}.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Value // error
	recordErr := func(err error) { firstErr.CompareAndSwap(nil, err) }
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := readable[rng.IntN(len(readable))]
				v, err := f.Get(testKeyName(i))
				if err != nil {
					recordErr(fmt.Errorf("read %s: %w", testKeyName(i), err))
					return
				}
				if !bytes.Equal(v, gen0(i)) && !bytes.Equal(v, gen1(i)) {
					recordErr(fmt.Errorf("read %s: corrupt value %q", testKeyName(i), v))
					return
				}
			}
		}(w)
	}

	// Crash node 2 mid-workload: blackhole + refuse new connections,
	// sever the flows in flight, then kill the process.
	crashNode2(backends, proxy)

	// Quorum write availability: every overwrite and delete must succeed
	// with one replica of three dead.
	for i := 0; i < m; i++ {
		key := testKeyName(i)
		if delSet[i] {
			if err := f.Del(key); err != nil {
				t.Fatalf("del %s during outage: %v", key, err)
			}
			continue
		}
		if err := f.Set(key, gen1(i)); err != nil {
			t.Fatalf("set %s during outage: %v", key, err)
		}
	}
	if hq := f.metrics.Counter("hints_queued_total").Value(); hq == 0 {
		t.Fatal("no hints queued during the outage")
	}

	// Restart node 2 EMPTY on its old address and heal the network.
	b2 := restartNode2(t, backends, proxy, crashAddr)

	// Hinted handoff drains once the probe loop closes the breaker.
	deadline := time.Now().Add(10 * time.Second)
	for f.hints.Total() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hints never drained: %d pending", f.hints.Total())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hr := f.metrics.Counter("hints_replayed_total").Value(); hr == 0 {
		t.Fatal("hints drained without any replay")
	}

	// A crashed-and-wiped replica can also resurface stale state through
	// paths hints don't cover: plant a pre-delete zombie value directly
	// and let anti-entropy settle everything.
	zombieKey := testKeyName(onNode2[0])
	b2.Store().Set(zombieKey, []byte("zombie"))
	for {
		nrep, err := f.RunRepairPass()
		if err != nil {
			t.Fatalf("repair pass: %v", err)
		}
		if nrep == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy never converged")
		}
	}
	if got := f.metrics.Counter("repair_keys_repaired_total").Value(); got == 0 {
		t.Fatal("anti-entropy repaired nothing (the zombie should have diverged)")
	}

	// Converged state, via the frontend and on the restarted replica
	// itself: overwrites visible, deletes stay deleted, no resurrection.
	for i := 0; i < m; i++ {
		key := testKeyName(i)
		v, err := f.Get(key)
		if delSet[i] {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted %s resurrected: %v %q", key, err, v)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, gen1(i)) {
			t.Fatalf("converged read %s = %q, %v; want %q", key, v, err, gen1(i))
		}
	}
	for _, i := range onNode2 {
		key := testKeyName(i)
		v, _, _, tomb, ok := b2.Store().GetVersioned(key)
		if delSet[i] {
			if !ok || !tomb {
				t.Fatalf("restarted replica: %s not tombstoned (ok=%v tomb=%v)", key, ok, tomb)
			}
			continue
		}
		if !ok || tomb || !bytes.Equal(v, gen1(i)) {
			t.Fatalf("restarted replica: %s = %q (ok=%v tomb=%v), want %q", key, v, ok, tomb, gen1(i))
		}
	}

	// Eq. 10: with the cluster healed and the concurrent readers still
	// running, the realized normalized max load over a 1s window must
	// sit below the paper's bound for x = |readable| queried keys.
	// (Concurrency matters: least-inflight balancing needs simultaneous
	// requests to spread a key's load across its group — a sequential
	// scan would deterministically hit each key's first choice.)
	x := len(readable)
	bound := core.Params{Nodes: n, Replication: d, Items: m, CacheSize: 0, KOverride: 1.2}.
		BoundNormalizedMaxLoad(x)
	counts := func() []uint64 {
		out := make([]uint64, len(backends))
		for i, b := range backends {
			out[i] = b.Metrics().Counter("requests_total").Value()
		}
		return out
	}
	before := counts()
	time.Sleep(1 * time.Second)
	after := counts()
	var total, maxLoad float64
	for i := range after {
		delta := float64(after[i] - before[i])
		total += delta
		if delta > maxLoad {
			maxLoad = delta
		}
	}
	if total == 0 {
		t.Fatal("no backend traffic in the measurement window")
	}
	norm := maxLoad / (total / float64(n))
	if norm >= bound {
		t.Fatalf("normalized max load %.3f, want < Eq.10 bound %.3f (x=%d)", norm, bound, x)
	}

	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("reader violation: %v", err)
	}
}
