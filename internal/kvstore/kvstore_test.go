package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"securecache/internal/cache"
	"securecache/internal/proto"
	"securecache/internal/workload"
)

// startCluster boots a small loopback cluster and registers cleanup.
func startCluster(t *testing.T, cfg LocalConfig) *LocalCluster {
	t.Helper()
	lc, err := StartLocalCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func TestBackendEndToEnd(t *testing.T) {
	b, addr, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClient(addr)
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := c.Set("k1", []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, err := c.Get("k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q, %v", v, err)
	}
	if err := c.Del("k1"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, err := c.Get("k1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Del = %v, want ErrNotFound", err)
	}
	if err := c.Del("k1"); err != nil {
		t.Errorf("idempotent Del errored: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if StatCounter(stats, "requests_total") < 6 {
		t.Errorf("requests_total = %v, want >= 6", stats["requests_total"])
	}
}

func TestFrontendReplicationFanOut(t *testing.T) {
	lc := startCluster(t, LocalConfig{Nodes: 5, Replication: 3, PartitionSeed: 42})
	key := "replicated-key"
	if err := lc.Frontend.Set(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	group := lc.Frontend.Group(key)
	if len(group) != 3 {
		t.Fatalf("group size %d", len(group))
	}
	inGroup := map[int]bool{}
	for _, n := range group {
		inGroup[n] = true
	}
	for i, b := range lc.Backends {
		_, stored := b.Store().Get(key)
		if inGroup[i] && !stored {
			t.Errorf("replica node %d missing the key", i)
		}
		if !inGroup[i] && stored {
			t.Errorf("non-replica node %d has the key", i)
		}
	}
}

func TestFrontendGetThroughCache(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 4, Replication: 2, PartitionSeed: 7,
		Cache: cache.NewLRU(100),
	})
	f := lc.Frontend
	if err := f.Set("hot", []byte("value")); err != nil {
		t.Fatal(err)
	}
	// First Get misses the cache, second hits.
	for i := 0; i < 2; i++ {
		v, err := f.Get("hot")
		if err != nil || string(v) != "value" {
			t.Fatalf("Get %d: %q, %v", i, v, err)
		}
	}
	hits := f.Metrics().Counter("cache_hits_total").Value()
	misses := f.Metrics().Counter("cache_misses_total").Value()
	if hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// A cached Get must not touch any backend.
	before := lc.BackendRequestCounts()
	if _, err := f.Get("hot"); err != nil {
		t.Fatal(err)
	}
	after := lc.BackendRequestCounts()
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("cached Get reached backend %d", i)
		}
	}
}

func TestFrontendSetRefreshesCachedKeyOnly(t *testing.T) {
	lru := cache.NewLRU(100)
	lc := startCluster(t, LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 1, Cache: lru,
	})
	f := lc.Frontend
	// Cold write: must not populate the cache.
	if err := f.Set("cold", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if lru.Contains(KeyID("cold")) {
		t.Error("cold Set populated the cache")
	}
	// Warm the key, then update: the cache must serve the new value.
	if _, err := f.Get("cold"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("cold", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get("cold")
	if err != nil || string(v) != "v1" {
		t.Errorf("Get after update = %q, %v; want v1", v, err)
	}
}

func TestFrontendDelInvalidatesCache(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 2, Cache: cache.NewLRU(10),
	})
	f := lc.Frontend
	if err := f.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("k"); err != nil { // warms cache
		t.Fatal(err)
	}
	if err := f.Del("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Del = %v, want ErrNotFound (stale cache?)", err)
	}
}

func TestFrontendFailoverOnBackendDeath(t *testing.T) {
	lc := startCluster(t, LocalConfig{Nodes: 4, Replication: 3, PartitionSeed: 3})
	f := lc.Frontend
	key := "survivor"
	if err := f.Set(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Kill the key's first-choice replica; reads must fail over.
	group := f.Group(key)
	lc.Backends[group[0]].Close()
	v, err := f.Get(key)
	if err != nil || string(v) != "data" {
		t.Fatalf("Get after replica death = %q, %v", v, err)
	}
	if f.Metrics().Counter("backend_errors_total").Value() == 0 {
		t.Error("failover did not record a backend error")
	}
}

func TestFrontendAllReplicasDead(t *testing.T) {
	lc := startCluster(t, LocalConfig{Nodes: 3, Replication: 3, PartitionSeed: 4})
	f := lc.Frontend
	if err := f.Set("doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, b := range lc.Backends {
		b.Close()
	}
	if _, err := f.Get("doomed"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Get with all replicas dead = %v, want transport error", err)
	}
	if err := f.Set("doomed", []byte("y")); err == nil {
		t.Error("Set with all replicas dead succeeded")
	}
}

func TestFrontendOverWire(t *testing.T) {
	// Exercise the frontend's own TCP surface with a Client.
	lc := startCluster(t, LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 5, Cache: cache.NewLRU(10),
	})
	c := NewClient(lc.FrontendAddr)
	defer c.Close()
	if err := c.Set("wire", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("wire")
	if err != nil || !bytes.Equal(v, []byte("payload")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key over wire = %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if StatCounter(stats, "requests_total") == 0 {
		t.Error("frontend stats empty")
	}
	if err := c.Del("wire"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestFrontendConcurrentClients(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 4, Replication: 2, PartitionSeed: 6, Cache: cache.NewLRU(1000),
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(lc.FrontendAddr)
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := c.Set(key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, err := c.Get(key)
				if err != nil || string(v) != key {
					errs <- fmt.Errorf("get %s: %q, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFrontendSelectionPolicies(t *testing.T) {
	for _, sel := range []Selection{SelectLeastInflight, SelectRandom, SelectRoundRobin} {
		lc := startCluster(t, LocalConfig{
			Nodes: 4, Replication: 3, PartitionSeed: 8, Selection: sel,
		})
		f := lc.Frontend
		if err := f.Set("k", []byte("v")); err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		for i := 0; i < 30; i++ {
			if _, err := f.Get("k"); err != nil {
				t.Fatalf("%s: Get %d: %v", sel, i, err)
			}
		}
		// Under round-robin without a cache, all three replicas must see
		// traffic.
		if sel == SelectRoundRobin {
			counts := lc.BackendRequestCounts()
			for _, node := range f.Group("k") {
				if counts[node] < 5 {
					t.Errorf("round-robin: replica %d saw only %d requests", node, counts[node])
				}
			}
		}
	}
}

func TestNewFrontendValidation(t *testing.T) {
	if _, err := NewFrontend(FrontendConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewFrontend(FrontendConfig{BackendAddrs: []string{"a"}, Replication: 2}); err == nil {
		t.Error("replication > nodes accepted")
	}
	if _, err := NewFrontend(FrontendConfig{BackendAddrs: []string{"a"}, Replication: 1, Selection: "bogus"}); err == nil {
		t.Error("bogus selection accepted")
	}
}

func TestLocalClusterValidation(t *testing.T) {
	if _, err := StartLocalCluster(LocalConfig{Nodes: 0}); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := StartLocalCluster(LocalConfig{Nodes: 2, Replication: 3}); err == nil {
		t.Error("replication > nodes accepted")
	}
}

func TestEntryEncodingGuardsCollisions(t *testing.T) {
	blob := encodeEntry("key-a", 7, []byte("value-a"))
	if _, _, ok := decodeEntry("key-b", blob); ok {
		t.Error("entry for key-a decoded under key-b")
	}
	v, ver, ok := decodeEntry("key-a", blob)
	if !ok || string(v) != "value-a" || ver != 7 {
		t.Errorf("decode = %q, %d, %v", v, ver, ok)
	}
	if _, _, ok := decodeEntry("x", nil); ok {
		t.Error("nil blob decoded")
	}
	if _, _, ok := decodeEntry("x", []byte{0}); ok {
		t.Error("1-byte blob decoded")
	}
	if _, _, ok := decodeEntry("x", encodeEntry("x", 1, nil)[:3]); ok {
		t.Error("version-truncated blob decoded")
	}
}

// TestAdversarialLoadConcentration is the end-to-end version of the
// paper's core claim, on a real TCP cluster: with an under-provisioned
// cache an attacker querying c+1 equal-rate keys concentrates load on one
// node; with the same attack against a cache holding all queried keys,
// the backends see (almost) nothing.
func TestAdversarialLoadConcentration(t *testing.T) {
	const nodes, d, c = 8, 3, 16
	const queries = 2000

	dist := workload.NewAdversarial(1000, c+1, 0)
	gen := workload.NewGenerator(dist, 99)

	runAttack := func(fc cache.Cache) (maxNode uint64, total uint64, lc *LocalCluster) {
		lc = startCluster(t, LocalConfig{
			Nodes: nodes, Replication: d, PartitionSeed: 1234, Cache: fc,
		})
		f := lc.Frontend
		// Preload the queried keys.
		for k := 0; k <= c; k++ {
			if err := f.Set(workload.KeyName(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		base := lc.BackendRequestCounts()
		for i := 0; i < queries; i++ {
			if _, err := f.Get(workload.KeyName(gen.Next())); err != nil {
				t.Fatal(err)
			}
		}
		counts := lc.BackendRequestCounts()
		for i := range counts {
			delta := counts[i] - base[i]
			total += delta
			if delta > maxNode {
				maxNode = delta
			}
		}
		return maxNode, total, lc
	}

	// Under-provisioned: a perfect cache pinning the c most popular keys
	// (the paper's Assumption 2) while the attacker queries c+1. The
	// residual key's entire stream lands on one replica. (A practical
	// LFU here churns its two coldest entries instead, splitting the
	// leak over two nodes — see the cache-policy ablation.)
	smallSet := make(map[uint64]bool, c)
	for k := 0; k < c; k++ {
		smallSet[KeyID(workload.KeyName(k))] = true
	}
	maxSmall, totalSmall, _ := runAttack(cache.NewPerfect(smallSet))
	if totalSmall == 0 {
		t.Fatal("no backend traffic under small cache")
	}
	// The hottest node should carry the lion's share of backend traffic.
	if float64(maxSmall) < 0.5*float64(totalSmall) {
		t.Errorf("hottest node carried %d/%d backend requests; expected concentration", maxSmall, totalSmall)
	}

	// Well-provisioned: cache larger than the queried set absorbs all.
	bigCache := cache.NewLFU(2 * (c + 1))
	_, totalBig, _ := runAttack(bigCache)
	if float64(totalBig) > 0.2*float64(totalSmall) {
		t.Errorf("well-provisioned cache leaked %d backend requests (small cache: %d)", totalBig, totalSmall)
	}
}

func TestMGetThroughStack(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 5, Replication: 3, PartitionSeed: 21, Cache: cache.NewLRU(100),
	})
	f := lc.Frontend
	for i := 0; i < 20; i++ {
		if err := f.Set(fmt.Sprintf("batch-%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, 25)
	for i := 0; i < 25; i++ { // last 5 don't exist
		keys = append(keys, fmt.Sprintf("batch-%02d", i))
	}
	// Through the frontend's Go API.
	results, err := f.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if !results[i].Found || string(results[i].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("result %d: %+v", i, results[i])
		}
	}
	for i := 20; i < 25; i++ {
		if results[i].Found {
			t.Fatalf("absent key %d reported found", i)
		}
	}
	// Second batch should be served from cache (no new backend requests).
	before := lc.BackendRequestCounts()
	results2, err := f.MGet(keys[:20])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results2 {
		if !r.Found {
			t.Fatalf("cached batch result %d missing", i)
		}
	}
	after := lc.BackendRequestCounts()
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("cached MGet touched backend %d", i)
		}
	}
	// And over the wire.
	c := NewClient(lc.FrontendAddr)
	defer c.Close()
	wireResults, err := c.MGet(keys[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(wireResults) != 3 || !wireResults[0].Found {
		t.Fatalf("wire MGet: %+v", wireResults)
	}
}

func TestMGetFallbackOnBackendDeath(t *testing.T) {
	lc := startCluster(t, LocalConfig{Nodes: 4, Replication: 3, PartitionSeed: 31})
	f := lc.Frontend
	keys := []string{"fa", "fb", "fc", "fd", "fe"}
	for _, k := range keys {
		if err := f.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one backend; the batch path must recover via per-key failover.
	lc.Backends[0].Close()
	results, err := f.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Found || string(r.Value) != "v" {
			t.Fatalf("result %d after backend death: %+v", i, r)
		}
	}
}

func TestClientMGetEmpty(t *testing.T) {
	c := NewClient("127.0.0.1:1") // never dialed
	defer c.Close()
	res, err := c.MGet(nil)
	if err != nil || res != nil {
		t.Errorf("empty MGet = %v, %v", res, err)
	}
}

func TestClientAddr(t *testing.T) {
	c := NewClient("10.0.0.1:9999")
	defer c.Close()
	if c.Addr() != "10.0.0.1:9999" {
		t.Errorf("Addr = %q", c.Addr())
	}
}

func TestFrontendCacheStats(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 1, Cache: cache.NewLRU(4),
	})
	f := lc.Frontend
	if err := f.Set("s", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.Get("s") // miss -> fill
	f.Get("s") // hit
	cs := f.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("CacheStats = %+v, want 1/1", cs)
	}
	// No cache configured: zero stats.
	bare := startCluster(t, LocalConfig{Nodes: 2, Replication: 1, PartitionSeed: 2})
	if got := bare.Frontend.CacheStats(); got.Hits != 0 || got.Misses != 0 {
		t.Errorf("bare CacheStats = %+v", got)
	}
}

func TestFrontendUnsupportedOpOverWire(t *testing.T) {
	lc := startCluster(t, LocalConfig{Nodes: 2, Replication: 1, PartitionSeed: 3})
	c := NewClient(lc.FrontendAddr)
	defer c.Close()
	resp, err := c.Do(&proto.Request{Op: proto.OpPing})
	if err != nil || resp.Status != proto.StatusOK {
		t.Fatalf("ping: %v / %v", resp, err)
	}
}

func TestBackendStatsOverWireWithMGetCounters(t *testing.T) {
	b, addr, err := StartBackend(9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClient(addr)
	defer c.Close()
	if err := c.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MGet([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if StatCounter(stats, "mgets_total") != 1 {
		t.Errorf("mgets_total = %v", stats["mgets_total"])
	}
	if StatCounter(stats, "gets_total") != 2 {
		t.Errorf("gets_total = %v", stats["gets_total"])
	}
}
