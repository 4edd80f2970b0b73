package kvstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/proto"
)

// startHungListener returns the address of a server that accepts TCP
// connections and reads requests but never replies — the shape of a
// saturated node, which (unlike a crashed one) produces no connection
// error, only silence.
func startHungListener(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestClientRetriesStalePooledConn is the regression test for the stale
// pooled connection bug: a request that fails on an idle conn whose peer
// restarted must be retried transparently on a fresh dial, not surfaced
// to the caller. MaxRetries is disabled to prove the reused-conn retry
// works outside the retry budget.
func TestClientRetriesStalePooledConn(t *testing.T) {
	b, addr, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClientWithConfig(addr, ClientConfig{MaxRetries: -1})
	defer c.Close()

	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Restart the backend on the same address: the client's pooled conn
	// is now a dead socket.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, _, err := StartBackend(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatalf("Set after backend restart = %v, want transparent retry", err)
	}
	if v, ok := b2.Store().Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("restarted backend store = %q, %v", v, ok)
	}
}

// TestClientRecoversFromServerIdleTimeout exercises the same reused-conn
// retry against a backend that drops idle connections on purpose.
func TestClientRecoversFromServerIdleTimeout(t *testing.T) {
	b, addr, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetIdleTimeout(40 * time.Millisecond)
	c := NewClientWithConfig(addr, ClientConfig{MaxRetries: -1})
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // server reaps the pooled conn
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after server idle-timeout = %v, want transparent retry", err)
	}
}

// TestClientDeadlineOnHungServer: without read deadlines this blocks
// forever; with them the client errors within the configured budget and
// the error is a timeout (which Do must not retry — hence one deadline,
// not MaxRetries× the deadline).
func TestClientDeadlineOnHungServer(t *testing.T) {
	addr := startHungListener(t)
	c := NewClientWithConfig(addr, ClientConfig{ReadTimeout: 100 * time.Millisecond})
	defer c.Close()

	start := time.Now()
	_, err := c.Get("k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get against hung server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error = %v, want a net timeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("hung Get took %v; deadline of 100ms not enforced (or was retried)", elapsed)
	}
}

// TestSerialClientRejectsWrongCorr: a serial client's response must
// echo the correlation ID of the request just sent. One that does not
// is a transport error: the call fails and the conn is closed, never
// pooled for the next caller.
func TestSerialClientRejectsWrongCorr(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	closed := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			closed <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		req, err := proto.ReadRequest(r)
		if err != nil {
			closed <- err
			return
		}
		proto.WriteResponse(conn, &proto.Response{Status: proto.StatusOK, Corr: req.Corr + 1})
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		_, err = r.ReadByte()
		closed <- err
	}()
	c := NewClientWithConfig(l.Addr().String(), ClientConfig{MaxRetries: -1})
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, proto.ErrMalformed) {
		t.Fatalf("ping answered under the wrong corr = %v, want ErrMalformed", err)
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d conns pooled after a mismatched response, want 0", idle)
	}
	if err := <-closed; err != io.EOF {
		t.Fatalf("server read after the mismatched response = %v, want EOF (client closed the conn)", err)
	}
}

// TestFrontendFailoverOnHungBackend is the end-to-end acceptance case: a
// backend that accepts but never replies must not stall Frontend.Get or
// MGet beyond the deadline budget; the request succeeds via another
// replica, and repeated failures open the hung node's breaker.
func TestFrontendFailoverOnHungBackend(t *testing.T) {
	hungAddr := startHungListener(t)
	b1, addr1, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, addr2, err := StartBackend(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	real := map[int]*Backend{1: b1, 2: b2}

	const readTimeout = 150 * time.Millisecond
	f, err := NewFrontend(FrontendConfig{
		BackendAddrs: []string{hungAddr, addr1, addr2},
		Replication:  2, PartitionSeed: 7,
		Client: ClientConfig{ReadTimeout: readTimeout, MaxRetries: -1},
		Health: HealthConfig{FailureThreshold: 2, ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A key whose first-choice replica is the hung node 0.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("hung-key-%d", i)
		if f.Group(key)[0] == 0 {
			break
		}
	}
	for _, node := range f.Group(key) {
		if b := real[node]; b != nil {
			b.Store().Set(key, []byte("alive"))
		}
	}

	start := time.Now()
	v, err := f.Get(key)
	elapsed := time.Since(start)
	if err != nil || string(v) != "alive" {
		t.Fatalf("Get via hung first choice = %q, %v", v, err)
	}
	// Budget: one write + one read deadline on the hung node, then the
	// healthy replica. Allow generous slack for CI schedulers.
	if elapsed > 4*readTimeout {
		t.Fatalf("failover took %v, budget ~%v", elapsed, readTimeout)
	}

	// Drive the consecutive-failure count over the threshold: the
	// breaker opens and the hung node is demoted to last resort, so
	// later reads stop paying its deadline at all.
	if _, err := f.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := f.health.state(0); got != breakerOpen {
		t.Fatalf("hung node breaker state = %d, want open", got)
	}
	if got := f.Metrics().Counter("breaker_open_total").Value(); got != 1 {
		t.Errorf("breaker_open_total = %d, want 1", got)
	}
	if got := f.Metrics().Gauge("backend_unhealthy_0").Value(); got != 1 {
		t.Errorf("backend_unhealthy_0 = %d, want 1", got)
	}
	start = time.Now()
	if _, err := f.Get(key); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > readTimeout {
		t.Errorf("Get with open breaker took %v; hung node not demoted", elapsed)
	}

	// MGet across the hung node must also complete within budget.
	keys := []string{key, "other-a", "other-b"}
	start = time.Now()
	results, err := f.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*readTimeout {
		t.Errorf("MGet took %v, budget ~%v", elapsed, readTimeout)
	}
	if !results[0].Found || string(results[0].Value) != "alive" {
		t.Errorf("MGet[0] = %+v", results[0])
	}

	// The resilience counters are part of the STATS snapshot.
	blob, err := f.Metrics().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"retries_total", "breaker_open_total", "backend_unhealthy_0"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("STATS snapshot missing %q", name)
		}
	}
}

// TestBreakerOpensAndRecovers: a crashed backend opens its breaker after
// the failure threshold; once it restarts, the background Ping probe
// half-opens it and the next successful exchange closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	b0, addr0, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b1, addr1, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()

	f, err := NewFrontend(FrontendConfig{
		BackendAddrs: []string{addr0, addr1},
		Replication:  2, PartitionSeed: 11,
		Client: ClientConfig{RetryBackoff: time.Millisecond},
		Health: HealthConfig{FailureThreshold: 2, ProbeInterval: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := f.Set("rk", []byte("v")); err != nil {
		t.Fatal(err)
	}
	b0.Close()

	// Reads keep succeeding through the survivor while node 0's
	// consecutive dial failures open the breaker.
	for i := 0; i < 5 && f.health.state(0) != breakerOpen; i++ {
		if _, err := f.Get("rk"); err != nil {
			t.Fatalf("Get %d with one dead replica: %v", i, err)
		}
	}
	if got := f.health.state(0); got != breakerOpen {
		t.Fatalf("breaker state after crash = %d, want open", got)
	}
	if f.Metrics().Counter("retries_total").Value() == 0 {
		t.Error("dial failures recorded no retries_total")
	}

	// Resurrect the node: the probe should half-open it without any
	// client traffic.
	b0r, _, err := StartBackend(0, addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer b0r.Close()
	deadline := time.Now().Add(3 * time.Second)
	for f.health.state(0) == breakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("probe never half-opened the recovered backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.Metrics().Gauge("backend_unhealthy_0").Value(); got != 0 {
		t.Errorf("backend_unhealthy_0 after probe recovery = %d, want 0", got)
	}

	// A real successful exchange closes the breaker fully. Write-all Set
	// touches node 0 regardless of selection order.
	if err := f.Set("rk2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := f.health.state(0); got != breakerClosed {
		t.Errorf("breaker state after successful request = %d, want closed", got)
	}
}

// TestMGetFallbackDoesNotDoubleCount is the regression test for the MGet
// fallback inflating requests_total and cache_misses_total by re-entering
// the instrumented Get path.
func TestMGetFallbackDoesNotDoubleCount(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 5,
		Client: ClientConfig{MaxRetries: -1, RetryBackoff: time.Millisecond},
	})
	f := lc.Frontend
	keys := []string{"ma", "mb", "mc", "md"}
	for _, k := range keys {
		if err := f.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Make sure the dead node is some key's first choice, so the batch
	// path actually fails over.
	victimFirst := false
	for _, k := range keys {
		if f.Group(k)[0] == 0 {
			victimFirst = true
		}
	}
	if !victimFirst {
		t.Fatal("test setup: no key routes to node 0 first; change keys or seed")
	}
	lc.Backends[0].Close()

	reqBefore := f.Metrics().Counter("requests_total").Value()
	missBefore := f.Metrics().Counter("cache_misses_total").Value()
	results, err := f.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Found || string(r.Value) != "v" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if got := f.Metrics().Counter("requests_total").Value() - reqBefore; got != 1 {
		t.Errorf("one MGet recorded %d requests_total, want 1", got)
	}
	if got := f.Metrics().Counter("cache_misses_total").Value() - missBefore; got != uint64(len(keys)) {
		t.Errorf("one MGet over %d keys recorded %d cache_misses_total", len(keys), got)
	}
}

// TestSetPartialFailureInvalidatesCache is the regression test for a
// partially failed write leaving the old value in the front-end cache
// while surviving replicas hold the new one.
func TestSetPartialFailureInvalidatesCache(t *testing.T) {
	lru := cache.NewLRU(16)
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 9, Cache: lru,
		Client: ClientConfig{MaxRetries: -1, RetryBackoff: time.Millisecond},
	})
	f := lc.Frontend
	if err := f.Set("pk", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("pk"); err != nil { // warm the cache
		t.Fatal(err)
	}
	lc.Backends[0].Close()
	if err := f.Set("pk", []byte("new")); err == nil {
		t.Fatal("partial Set reported success")
	}
	if lru.Contains(KeyID("pk")) {
		t.Error("cache still holds an entry after a partial write failure")
	}
	// A subsequent read must reflect what the surviving replica holds.
	v, err := f.Get("pk")
	if err != nil || string(v) != "new" {
		t.Fatalf("Get after partial Set = %q, %v; want the survivor's value", v, err)
	}
}

// TestStatCounterLargeValues is the regression test for counters being
// squeezed through float64 (exact only up to 2^53).
func TestStatCounterLargeValues(t *testing.T) {
	const huge = uint64(1)<<60 + 3 // not representable in float64
	b, addr, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Metrics().Counter("huge_total").Add(huge)

	c := NewClient(addr)
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := StatCounter(stats, "huge_total"); got != huge {
		t.Errorf("StatCounter(huge_total) = %d, want %d", got, huge)
	}
}

func TestStatCounterDecoding(t *testing.T) {
	cases := []struct {
		in   interface{}
		want uint64
	}{
		{json.Number("18446744073709551615"), 1<<64 - 1},
		{json.Number("42"), 42},
		{json.Number("-3"), 0},
		{json.Number("2.5e3"), 2500},
		{float64(1000), 1000},
		{float64(-1), 0},
		{uint64(7), 7},
		{int64(8), 8},
		{int(9), 9},
		{"not-a-number", 0},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := StatCounter(map[string]interface{}{"x": tc.in}, "x"); got != tc.want {
			t.Errorf("StatCounter(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := StatCounter(map[string]interface{}{}, "absent"); got != 0 {
		t.Errorf("StatCounter(absent) = %d", got)
	}
}

// TestClientConfigDefaults pins the zero-value and negative-value
// conventions.
func TestClientConfigDefaults(t *testing.T) {
	def := ClientConfig{}.withDefaults()
	if def.DialTimeout != DefaultDialTimeout || def.ReadTimeout != DefaultReadTimeout ||
		def.WriteTimeout != DefaultWriteTimeout || def.MaxRetries != DefaultMaxRetries {
		t.Errorf("zero config resolved to %+v", def)
	}
	off := ClientConfig{
		DialTimeout: -1, ReadTimeout: -1, WriteTimeout: -1, MaxRetries: -1,
	}.withDefaults()
	if off.DialTimeout != 0 || off.ReadTimeout != 0 || off.WriteTimeout != 0 || off.MaxRetries != 0 {
		t.Errorf("negative config resolved to %+v", off)
	}
	if (HealthConfig{}).withDefaults().FailureThreshold != DefaultFailureThreshold {
		t.Error("zero HealthConfig did not take the default threshold")
	}
	if !(HealthConfig{FailureThreshold: -1}).Disabled() {
		t.Error("negative threshold did not disable health gating")
	}
	if newHealthTracker(2, HealthConfig{FailureThreshold: -1}, nil) != nil {
		t.Error("disabled health config built a tracker")
	}
}

// TestFrontendHealthDisabled: with gating off the frontend behaves like
// the seed code (pure policy order, no breaker metrics movement).
func TestFrontendHealthDisabled(t *testing.T) {
	lc := startCluster(t, LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 13,
		Health: HealthConfig{FailureThreshold: -1},
		Client: ClientConfig{MaxRetries: -1, RetryBackoff: time.Millisecond},
	})
	f := lc.Frontend
	if err := f.Set("dk", []byte("v")); err != nil {
		t.Fatal(err)
	}
	lc.Backends[f.Group("dk")[0]].Close()
	for i := 0; i < 5; i++ {
		if v, err := f.Get("dk"); err != nil || string(v) != "v" {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
	}
	if got := f.Metrics().Counter("breaker_open_total").Value(); got != 0 {
		t.Errorf("disabled breaker opened %d times", got)
	}
}
