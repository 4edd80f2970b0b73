package kvstore

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"securecache/internal/overload"
	"securecache/internal/proto"
)

// TestBackendShedsOnRateLimit: requests beyond the token bucket come
// back StatusBusy (ErrBusy to the caller) instead of queueing, and the
// shed is counted. Ping is exempt so probes keep working.
func TestBackendShedsOnRateLimit(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackendWithLimits(0, "127.0.0.1:0",
		overload.Limits{RateLimit: 5, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Store().Set("k", []byte("v"))

	c := NewClientWithConfig(addr, ClientConfig{MaxRetries: -1})
	defer c.Close()

	var ok, busy int
	for i := 0; i < 40; i++ {
		_, err := c.Get("k")
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrBusy):
			busy++
		default:
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("ok=%d busy=%d; want both non-zero under a rate limit", ok, busy)
	}
	if got := b.Metrics().Counter("shed_total").Value(); got != uint64(busy) {
		t.Errorf("shed_total = %d, want %d", got, busy)
	}
	// Probes bypass admission: a saturated node still answers Ping.
	for i := 0; i < 10; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping %d on saturated node: %v", i, err)
		}
	}
}

// TestBackendMaxConnsRejectsAtAccept: connections past MaxConns are
// closed before they can hold a handler goroutine.
func TestBackendMaxConnsRejectsAtAccept(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackendWithLimits(0, "127.0.0.1:0", overload.Limits{MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	hold := make([]net.Conn, 0, 2)
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hold = append(hold, conn)
	}
	// Give the accept loop time to register both.
	waitFor(t, time.Second, "a connection over MaxConns closed at accept", func() bool {
		c3, err := net.Dial("tcp", addr)
		if err != nil {
			return true // refused outright also counts as rejected
		}
		defer c3.Close()
		c3.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		_, rerr := c3.Read(make([]byte, 1))
		return rerr == io.EOF
	})
	if got := b.Metrics().Counter("busy_conns_rejected_total").Value(); got == 0 {
		t.Error("busy_conns_rejected_total = 0 after over-cap connects")
	}
	// Established connections still work at the cap.
	cc := hold[0]
	cc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := pingRaw(cc); err != nil {
		t.Fatalf("held conn unusable at MaxConns: %v", err)
	}
}

// pingRaw does one OpPing exchange on an already-established conn (a
// fresh Client would dial a new connection and defeat the point).
func pingRaw(conn net.Conn) error {
	if err := proto.WriteRequest(conn, &proto.Request{Op: proto.OpPing, Corr: 1}); err != nil {
		return err
	}
	resp, err := proto.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return err
	}
	if resp.Corr != 1 {
		return errors.New("ping answered under the wrong correlation ID")
	}
	return resp.Err()
}

// TestBackendMaxInflightSheds: with the one in-flight slot held (a Set
// parked inside its handler), concurrent requests are shed, and service
// resumes once the handler returns.
func TestBackendMaxInflightSheds(t *testing.T) {
	checkGoroutineLeaks(t)
	b := NewBackendWithLimits(0, overload.Limits{MaxInflight: 1, AdmissionWait: -1})
	parked, release := make(chan struct{}), make(chan struct{})
	handle := b.srv.handle
	b.srv.handle = func(req *proto.Request, scratch *[]byte) *proto.Response {
		if req.Op == proto.OpSet && req.Key == "park" {
			close(parked)
			<-release
		}
		return handle(req, scratch)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(l)
	defer b.Close()
	b.Store().Set("small", []byte("v"))

	holder := NewClientWithConfig(l.Addr().String(), ClientConfig{MaxRetries: -1})
	defer holder.Close()
	held := make(chan error, 1)
	go func() { held <- holder.Set("park", []byte("v")) }()
	<-parked

	c := NewClientWithConfig(l.Addr().String(), ClientConfig{MaxRetries: -1})
	defer c.Close()
	if _, err := c.Get("small"); !errors.Is(err, ErrBusy) {
		t.Fatalf("get while the in-flight slot is held = %v, want ErrBusy", err)
	}
	// Return the parked handler: the slot frees and service resumes.
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("parked set: %v", err)
	}
	if _, err := c.Get("small"); err != nil {
		t.Fatalf("get once the slot freed: %v", err)
	}
}

// TestFrontendFailsOverOnBusyWithoutTrippingBreaker is the core
// semantic test: a shedding backend is alive, so the frontend must
// fail over to a replica AND keep the shedding node's breaker closed.
func TestFrontendFailsOverOnBusyWithoutTrippingBreaker(t *testing.T) {
	checkGoroutineLeaks(t)
	// Victim node 0 sheds everything (rate ~0); nodes 1, 2 are open.
	victim, vaddr, err := StartBackendWithLimits(0, "127.0.0.1:0",
		overload.Limits{RateLimit: 0.001, RateBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
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

	f, err := NewFrontend(FrontendConfig{
		BackendAddrs: []string{vaddr, addr1, addr2},
		Replication:  2, PartitionSeed: 31,
		Client: ClientConfig{MaxRetries: -1},
		Health: HealthConfig{FailureThreshold: 2, ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Seed every backend so any replica can serve any key.
	for i := 0; i < 32; i++ {
		for _, b := range []*Backend{victim, b1, b2} {
			b.Store().Set(testKeyName(i), []byte("v"))
		}
	}
	// Burn the victim's single burst token, then hammer keys that have
	// the victim in their group.
	for i := 0; i < 32; i++ {
		if v, err := f.Get(testKeyName(i)); err != nil || string(v) != "v" {
			t.Fatalf("Get %d through shedding victim = %q, %v", i, v, err)
		}
	}
	if victim.Metrics().Counter("shed_total").Value() == 0 {
		t.Fatal("victim shed nothing; test routed no traffic to it")
	}
	if got := f.Metrics().Counter("backend_busy_total").Value(); got == 0 {
		t.Error("frontend recorded no backend_busy_total")
	}
	if got := f.health.state(0); got != breakerClosed {
		t.Errorf("shedding node's breaker state = %d, want closed", got)
	}
	if got := f.Metrics().Counter("breaker_open_total").Value(); got != 0 {
		t.Errorf("breaker_open_total = %d, want 0 — busy must not trip the breaker", got)
	}
}

// TestFrontendOwnListenerSheds: the frontend applies the same admission
// control to its own clients, answering StatusBusy past its limits.
func TestFrontendOwnListenerSheds(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 17,
		FrontendLimits: overload.Limits{RateLimit: 5, RateBurst: 2},
		Client:         ClientConfig{MaxRetries: -1},
	})
	c := NewClientWithConfig(lc.FrontendAddr, ClientConfig{MaxRetries: -1})
	defer c.Close()
	if err := c.Set("fk", []byte("v")); err != nil && !errors.Is(err, ErrBusy) {
		t.Fatal(err)
	}
	var busy int
	for i := 0; i < 40; i++ {
		if _, err := c.Get("fk"); errors.Is(err, ErrBusy) {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("frontend shed nothing past its rate limit")
	}
	if got := lc.Frontend.Metrics().Counter("shed_total").Value(); got == 0 {
		t.Error("frontend shed_total = 0")
	}
	// Stats stays reachable on a saturated frontend (exempt op).
	if _, err := c.Stats(); err != nil {
		t.Errorf("Stats on saturated frontend: %v", err)
	}
}

// TestFrontendIdleTimeoutDropsSlowLoris is the regression test for the
// frontend-side slow-loris hole: a client that connects and sends
// nothing must be disconnected once IdleTimeout elapses, not hold a
// goroutine forever.
func TestFrontendIdleTimeoutDropsSlowLoris(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 1, PartitionSeed: 23,
		FrontendIdleTimeout: 60 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", lc.FrontendAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	_, rerr := conn.Read(make([]byte, 1))
	if rerr == nil {
		t.Fatal("stalled connection read data")
	}
	if isTimeout(rerr) {
		t.Fatalf("frontend never dropped the stalled connection (read timed out after %v)", time.Since(start))
	}
	// An active client is unaffected: each request resets the window.
	c := NewClient(lc.FrontendAddr)
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("active client Ping %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWireErrorsAreSanitized is the regression test for internal error
// leakage: a frontend whose replicas are all unreachable must not put
// backend addresses or dial error detail on the wire.
func TestWireErrorsAreSanitized(t *testing.T) {
	checkGoroutineLeaks(t)
	// Reserve two addresses, then close them: dials will fail fast.
	deadAddrs := make([]string, 2)
	for i := range deadAddrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddrs[i] = l.Addr().String()
		l.Close()
	}
	f, faddr, err := StartFrontend(FrontendConfig{
		BackendAddrs: deadAddrs,
		Replication:  2, PartitionSeed: 3,
		Client: ClientConfig{MaxRetries: -1, DialTimeout: 200 * time.Millisecond},
		Health: HealthConfig{FailureThreshold: -1},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c := NewClientWithConfig(faddr, ClientConfig{MaxRetries: -1})
	defer c.Close()
	_, gerr := c.Get("leak-probe")
	if gerr == nil {
		t.Fatal("Get with all backends dead succeeded")
	}
	msg := gerr.Error()
	for _, addr := range deadAddrs {
		if strings.Contains(msg, addr) {
			t.Errorf("wire error leaks backend address %s: %q", addr, msg)
		}
	}
	for _, frag := range []string{"dial", "connection refused", "127.0.0.1"} {
		if strings.Contains(msg, frag) {
			t.Errorf("wire error leaks internal detail %q: %q", frag, msg)
		}
	}
	if !strings.Contains(msg, "internal error") {
		t.Errorf("sanitized message missing marker: %q", msg)
	}
}

// TestRetryBudgetStopsRetryStorm: with a shared budget, a wave of
// failures gets at most budget-many retries in aggregate, not
// MaxRetries × requests.
func TestRetryBudgetStopsRetryStorm(t *testing.T) {
	checkGoroutineLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	budget := overload.NewRetryBudget(3, 0.1)
	var retries, suppressed int
	c := NewClientWithConfig(dead, ClientConfig{
		MaxRetries:        4,
		RetryBackoff:      time.Microsecond,
		DialTimeout:       100 * time.Millisecond,
		RetryBudget:       budget,
		OnRetry:           func() { retries++ },
		OnRetrySuppressed: func() { suppressed++ },
	})
	defer c.Close()

	const requests = 10
	for i := 0; i < requests; i++ {
		if _, err := c.Get("k"); err == nil {
			t.Fatal("Get against a dead address succeeded")
		}
	}
	// Without the budget this would be MaxRetries×requests = 40.
	if retries != 3 {
		t.Errorf("aggregate retries = %d, want exactly the budget (3)", retries)
	}
	if suppressed == 0 {
		t.Error("no retry was recorded as suppressed")
	}
	if budget.Exhausted() == 0 {
		t.Error("budget.Exhausted() = 0")
	}
}

// TestFrontendRetryBudgetMetric: the frontend's shared budget surfaces
// suppression in retry_budget_exhausted_total.
func TestFrontendRetryBudgetMetric(t *testing.T) {
	checkGoroutineLeaks(t)
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 41,
		Client:         ClientConfig{MaxRetries: 3, RetryBackoff: time.Microsecond, DialTimeout: 100 * time.Millisecond},
		RetryBudgetMax: 2, RetryBudgetRatio: 0.1,
		Health: HealthConfig{FailureThreshold: -1},
	})
	f := lc.Frontend
	if err := f.Set("bk", []byte("v")); err != nil {
		t.Fatal(err)
	}
	lc.Backends[0].Close()
	lc.Backends[1].Close()
	for i := 0; i < 10; i++ {
		f.Get("bk") // all fail; retries drain the shared budget
	}
	if got := f.Metrics().Counter("retry_budget_exhausted_total").Value(); got == 0 {
		t.Error("retry_budget_exhausted_total = 0 after a failure wave")
	}
	if got := f.Metrics().Counter("retries_total").Value(); got > 4 {
		// Budget 2 plus up to one free reused-conn retry per pooled conn.
		t.Errorf("retries_total = %d; budget did not damp the storm", got)
	}
}

// waitFor polls cond until it holds, and fails the test, naming what
// was awaited, if it still does not once d has elapsed.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not seen within %v", what, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
