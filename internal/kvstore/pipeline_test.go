package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"securecache/internal/faultnet"
	"securecache/internal/overload"
	"securecache/internal/proto"
)

// TestPipelineBasicRoundTrips: sanity for the pipelined transport —
// concurrent mixed ops against a real backend, all multiplexed on one
// conn, all correct, no goroutines left behind.
func TestPipelineBasicRoundTrips(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClientWithConfig(addr, ClientConfig{PipelineDepth: 64})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("k-%d-%d", w, i)
				if err := c.Set(k, []byte(k)); err != nil {
					errs <- fmt.Errorf("set %s: %w", k, err)
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					errs <- fmt.Errorf("get %s = %q, %v", k, v, err)
					return
				}
				if err := c.Del(k); err != nil {
					errs <- fmt.Errorf("del %s: %w", k, err)
					return
				}
				if _, err := c.Get(k); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("get deleted %s: %v", k, err)
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

// TestPipelineConnDeathFailsAllPending: a server that dies with a full
// window of frames in flight must fail every pending call promptly
// with a transport (non-timeout, retryable-class) error — and the
// client's reader/writer goroutines must exit (leakcheck).
func TestPipelineConnDeathFailsAllPending(t *testing.T) {
	checkGoroutineLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 32
	sawAll := make(chan net.Conn, 1)
	go func() {
		conn, aerr := l.Accept()
		if aerr != nil {
			return
		}
		// Read the whole window but answer nothing: every frame is now
		// pending client-side.
		r := bufio.NewReader(conn)
		for i := 0; i < inflight; i++ {
			if _, rerr := proto.ReadRequest(r); rerr != nil {
				conn.Close()
				return
			}
		}
		sawAll <- conn
	}()
	c := NewClientWithConfig(l.Addr().String(), ClientConfig{
		PipelineDepth: inflight,
		MaxRetries:    -1,
		DialTimeout:   500 * time.Millisecond,
		ReadTimeout:   10 * time.Second, // far beyond the test: failures must NOT be timeouts
	})
	defer c.Close()
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, gerr := c.Get(fmt.Sprintf("k-%d", i))
			results <- gerr
		}(i)
	}
	var conn net.Conn
	select {
	case conn = <-sawAll:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the full window")
	}
	// Kill the conn AND the listener: the pending calls must fail over
	// the dead pipe, and the follow-up redial must fail fast too.
	start := time.Now()
	conn.Close()
	l.Close()
	for i := 0; i < inflight; i++ {
		select {
		case gerr := <-results:
			if gerr == nil {
				t.Fatal("a pending call succeeded on a dead conn")
			}
			if isTimeout(gerr) {
				t.Fatalf("pending call failed by timeout, want fail-all-pending transport error: %v", gerr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending call %d still blocked %v after conn death", i, time.Since(start))
		}
	}
}

// TestPipelineRetryAfterConnDeath: the death of a shared pipe feeds the
// normal retry policy — the next call transparently redials (free
// retry, like a stale pooled conn) and succeeds.
func TestPipelineRetryAfterConnDeath(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	proxy, err := faultnet.Start(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := NewClientWithConfig(proxy.Addr(), ClientConfig{PipelineDepth: 16})
	defer c.Close()
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	proxy.CloseExisting() // pipe dies between requests
	v, err := c.Get("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("get after pipe death = %q, %v (want transparent redial)", v, err)
	}
}

// TestPipelineBusyDoesNotPoisonWindow: a StatusBusy response releases
// its window slot like any other completion — after a shed storm the
// full window must still be usable.
func TestPipelineBusyDoesNotPoisonWindow(t *testing.T) {
	checkGoroutineLeaks(t)
	const depth = 8
	b, addr, err := StartBackendWithLimits(1, "127.0.0.1:0",
		overload.Limits{RateLimit: 50, RateBurst: 1, AdmissionWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClientWithConfig(addr, ClientConfig{PipelineDepth: depth, MaxRetries: -1})
	defer c.Close()
	if err := waitUntil(2*time.Second, func() bool {
		return c.Set("k", []byte("v")) == nil
	}); err != nil {
		t.Fatal("seed write never admitted")
	}
	var wg sync.WaitGroup
	var busy, ok, other int
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, gerr := c.Get("k")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case gerr == nil && string(v) == "v":
				ok++
			case errors.Is(gerr, ErrBusy):
				busy++
			default:
				other++
				t.Errorf("get under shed storm: %q, %v", v, gerr)
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d ops hit transport errors (want only OK/Busy)", other)
	}
	if busy == 0 {
		t.Fatalf("no op was shed (ok=%d) — the storm never exercised StatusBusy", ok)
	}
	// Window health: with every slot released, depth sequential
	// round trips (retrying sheds) must all complete.
	for i := 0; i < depth+2; i++ {
		if err := waitUntil(2*time.Second, func() bool {
			v, gerr := c.Get("k")
			return gerr == nil && string(v) == "v"
		}); err != nil {
			t.Fatalf("op %d after shed storm never completed: window poisoned?", i)
		}
	}
}

// TestPipelineTruncationDetected: a mid-stream truncation (faultnet
// cuts the server→client byte stream) must surface as a detected
// transport error on every affected call — never as a response
// mis-matched to the wrong request.
func TestPipelineTruncationDetected(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Seed distinct, recognizable values directly.
	for i := 0; i < 32; i++ {
		b.Store().Set(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("value-for-%02d", i)))
	}
	for _, cut := range []int64{37, 100, 256} { // mid-frame and near-boundary cuts
		proxy, perr := faultnet.Start(addr)
		if perr != nil {
			t.Fatal(perr)
		}
		proxy.SetFaults(faultnet.Faults{TruncateAfterBytes: cut})
		c := NewClientWithConfig(proxy.Addr(), ClientConfig{
			PipelineDepth: 16,
			MaxRetries:    -1,
			ReadTimeout:   500 * time.Millisecond,
		})
		var wg sync.WaitGroup
		var failed, wrong int
		var mu sync.Mutex
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := fmt.Sprintf("key-%02d", i)
				v, gerr := c.Get(k)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case gerr != nil:
					failed++
				case string(v) != fmt.Sprintf("value-for-%02d", i):
					wrong++
					t.Errorf("cut=%d: %s returned %q — response matched to the wrong request", cut, k, v)
				}
			}(i)
		}
		wg.Wait()
		if wrong != 0 {
			t.Fatalf("cut=%d: %d mis-matched responses", cut, wrong)
		}
		if failed == 0 {
			t.Fatalf("cut=%d: truncation was never detected (all 32 reads succeeded)", cut)
		}
		c.Close()
		proxy.Close()
	}
}

// TestPipelineLegacyInterop: a serial client and a pipelined client
// against the same server must both work — each conn keeps its own
// correlation sequence.
func TestPipelineLegacyInterop(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	legacy := NewClient(addr)
	defer legacy.Close()
	piped := NewClientWithConfig(addr, ClientConfig{PipelineDepth: 8})
	defer piped.Close()
	if err := legacy.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := piped.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, err := piped.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("pipelined read of serial write: %q, %v", v, err)
	}
	if v, err := legacy.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("serial read of pipelined write: %q, %v", v, err)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// TestFrontendPipelinesBackendHop: with the default client config the
// frontend keeps one pipelined conn per backend, and 64 concurrent
// misses all ride it instead of each taking a conn of its own.
func TestFrontendPipelinesBackendHop(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{Nodes: 4, Replication: 2, PartitionSeed: 11, RepairInterval: -1})
	const misses = 64
	names := make([]string, misses)
	for i := range names {
		names[i] = fmt.Sprintf("pipe-hop-%d", i)
		// Straight into the stores: the frontend has not dialed anything
		// before the misses below.
		for _, node := range lc.Frontend.Group(names[i]) {
			lc.Backends[node].Store().SetVersioned(names[i], []byte(names[i]), 0, 1)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, misses)
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if v, err := lc.Frontend.Get(name); err != nil || string(v) != name {
				errs <- fmt.Errorf("get %s = %q, %v", name, v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, b := range lc.Backends {
		if conns := b.Server().Conns(); conns != 1 {
			t.Errorf("backend %d holds %d frontend conns, want 1", i, conns)
		}
		if got := b.Metrics().Counter("gets_total").Value(); got == 0 {
			t.Errorf("backend %d served no GET", i)
		}
	}
}

// TestFrontendPipeDeathFailsOver kills a backend's conn while a window
// of GETs waits on it. Every GET must still succeed from the other
// replica, the pipe must redial once the backend is reachable again, and
// the frontend's retry and breaker accounting must count one free retry
// per GET that died on the pipe.
func TestFrontendPipeDeathFailsOver(t *testing.T) {
	type counts struct{ retries, errors, opens uint64 }
	const window = 16 // GETs in flight; every other one ranks node 0 first
	run := func(t *testing.T) counts {
		checkGoroutineLeaks(t)
		b0, addr0, err := StartBackend(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b0.Close()
		b1, addr1, err := StartBackend(1, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b1.Close()
		proxy, err := faultnet.Start(addr0)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		f, err := NewFrontend(FrontendConfig{
			BackendAddrs:   []string{proxy.Addr(), addr1},
			Replication:    2,
			PartitionSeed:  5,
			Selection:      SelectRoundRobin, // alternates the first choice per GET
			Client:         ClientConfig{MaxRetries: -1},
			RetryBudgetMax: -1,
			Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: time.Hour},
			RepairInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		const key = "pipe-death"
		if err := f.Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		c0 := f.fleet.Load().clients[0]
		c0.mu.Lock()
		oldPipe := c0.pipe
		c0.mu.Unlock()
		if oldPipe == nil {
			t.Fatal("frontend has no pipelined conn to node 0")
		}

		// Node 0 applies the GETs but its answers vanish, so half the
		// window stays in flight on its conns until they are cut.
		proxy.SetFaults(faultnet.Faults{DropToClient: true})
		gets0 := b0.Metrics().Counter("gets_total").Value()
		var wg sync.WaitGroup
		errs := make(chan error, window)
		for i := 0; i < window; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := f.Get(key); err != nil || string(v) != "v" {
					errs <- fmt.Errorf("get = %q, %v", v, err)
				}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for b0.Metrics().Counter("gets_total").Value()-gets0 < window/2 {
			if time.Now().After(deadline) {
				t.Fatal("node 0 never received its half of the window")
			}
			time.Sleep(time.Millisecond)
		}
		// Refuse redials first, then cut the live conns. Answers keep
		// vanishing until the cut: one the proxy forwarded in between
		// would let a GET succeed on node 0.
		proxy.SetFaults(faultnet.Faults{DropToClient: true, RejectConns: true})
		proxy.CloseExisting()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		m := f.Metrics()
		got := counts{
			retries: m.Counter("retries_total").Value(),
			errors:  m.Counter("backend_errors_total").Value(),
			opens:   m.Counter("breaker_open_total").Value(),
		}

		proxy.Clear()
		if err := c0.Ping(); err != nil {
			t.Fatalf("node 0 unreachable after the fault cleared: %v", err)
		}
		c0.mu.Lock()
		pipe := c0.pipe
		c0.mu.Unlock()
		if pipe == nil || pipe == oldPipe {
			t.Error("the pipe to node 0 was not redialed")
		}
		return got
	}
	var pipelined counts
	t.Run("pipelined", func(t *testing.T) { pipelined = run(t) })
	// One free retry per GET that died on node 0, each of which then
	// counts one backend error; three consecutive failures open node 0's
	// breaker once.
	want := counts{retries: window / 2, errors: window / 2, opens: 1}
	if pipelined != want {
		t.Errorf("pipelined %+v, want %+v", pipelined, want)
	}
}
