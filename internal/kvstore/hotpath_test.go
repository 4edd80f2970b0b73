package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/proto"
)

// Tests for the frontend hot-path machinery: the singleflight miss
// coalescer and its interaction with read repair, tombstones, and cache
// invalidation.

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	calls := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err, shared := g.Do("k", func() ([]byte, error) {
			calls++
			<-release
			return []byte("val"), nil
		})
		if err != nil || string(v) != "val" || shared {
			t.Errorf("leader Do = %q, %v, shared=%v", v, err, shared)
		}
	}()
	// Wait until the leader holds the flight, then pile on waiters.
	for {
		g.mu.Lock()
		occupied := g.m["k"] != nil
		g.mu.Unlock()
		if occupied {
			break
		}
		time.Sleep(time.Millisecond)
	}
	const waiters = 6
	var wg sync.WaitGroup
	sharedCount := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() ([]byte, error) {
				t.Error("waiter ran the fetch itself")
				return nil, nil
			})
			if err != nil || string(v) != "val" {
				t.Errorf("waiter Do = %q, %v", v, err)
			}
			sharedCount <- shared
		}()
	}
	// Give the waiters time to park on the flight, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	<-done
	close(sharedCount)
	for shared := range sharedCount {
		if !shared {
			t.Error("waiter did not report a shared result")
		}
	}
	if calls != 1 {
		t.Fatalf("fetch ran %d times, want 1", calls)
	}
	if _, _, shared := g.Do("k", func() ([]byte, error) { return nil, nil }); shared {
		t.Fatal("flight not cleared after completion")
	}
}

func TestFlightGroupForget(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	var oldV []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		oldV, _, _ = g.Do("k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("old"), nil
		})
	}()
	<-started
	// A write happened: detach the in-progress flight.
	g.Forget("k")
	// The next Do must run its own fetch, not join the detached one.
	v, err, shared := g.Do("k", func() ([]byte, error) { return []byte("new"), nil })
	if err != nil || string(v) != "new" || shared {
		t.Fatalf("post-Forget Do = %q, %v, shared=%v; joined a stale flight", v, err, shared)
	}
	close(release)
	<-done
	if string(oldV) != "old" {
		t.Fatalf("detached leader got %q, want its own result", oldV)
	}
	// The detached flight's completion must not have clobbered state for
	// later calls.
	if _, _, shared := g.Do("k", func() ([]byte, error) { return nil, nil }); shared {
		t.Fatal("stale flight survived its completion")
	}
}

// stubBackend is a minimal wire-protocol server whose GETV responses are
// scripted and gated, so a test can hold a miss fetch open while
// concurrent frontend Gets pile onto the flight.
type stubBackend struct {
	l       net.Listener
	release chan struct{}
	started chan struct{}
	once    sync.Once
	respond func() *proto.Response

	mu   sync.Mutex
	getv int
}

func startStubBackend(t *testing.T, respond func() *proto.Response) *stubBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubBackend{
		l:       l,
		release: make(chan struct{}),
		started: make(chan struct{}),
		respond: respond,
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serveConn(conn)
		}
	}()
	return s
}

func (s *stubBackend) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		req, err := proto.ReadRequest(r)
		if err != nil {
			return
		}
		var resp *proto.Response
		switch req.Op {
		case proto.OpPing:
			resp = &proto.Response{Status: proto.StatusOK}
		case proto.OpGetV:
			s.mu.Lock()
			s.getv++
			s.mu.Unlock()
			s.once.Do(func() { close(s.started) })
			<-s.release
			resp = s.respond()
		default:
			resp = &proto.Response{Status: proto.StatusError, Payload: []byte("stub: unexpected " + req.Op.String())}
		}
		// Echo the correlation ID as the real server does, so pipelined
		// clients (the frontend's default) can match the answer.
		resp.Corr = req.Corr
		if err := proto.WriteResponse(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *stubBackend) getvCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getv
}

// stubFrontend builds a cached frontend over one stub backend at addr.
func stubFrontend(t *testing.T, addr string) *Frontend {
	t.Helper()
	c, err := cache.NewSharded(cache.KindLRU, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontend(FrontendConfig{
		BackendAddrs:   []string{addr},
		Replication:    1,
		PartitionSeed:  7,
		Cache:          c,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCoalescedMissSingleFetch pins the tentpole behavior: N concurrent
// misses on one key produce ONE backend fetch, every caller gets the
// value, and the coalesced_misses_total counter accounts for the
// waiters.
func TestCoalescedMissSingleFetch(t *testing.T) {
	checkGoroutineLeaks(t)
	want := []byte("coalesced-value")
	s := startStubBackend(t, func() *proto.Response {
		payload, err := proto.EncodeGetVPayload(42, want)
		if err != nil {
			panic(err)
		}
		return &proto.Response{Status: proto.StatusOK, Payload: payload}
	})
	f := stubFrontend(t, s.l.Addr().String())

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	vals := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = f.Get("stampede-key")
		}(i)
	}
	<-s.started
	// All remaining readers are now parked on the leader's flight (the
	// backend is holding the only fetch open).
	time.Sleep(100 * time.Millisecond)
	close(s.release)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil || !bytes.Equal(vals[i], want) {
			t.Fatalf("reader %d: %q, %v", i, vals[i], errs[i])
		}
	}
	if got := s.getvCount(); got != 1 {
		t.Fatalf("backend saw %d fetches for one coalesced stampede, want 1", got)
	}
	if got := f.metrics.Counter("coalesced_misses_total").Value(); got != readers-1 {
		t.Fatalf("coalesced_misses_total = %d, want %d", got, readers-1)
	}
	// The flight filled the cache: the next read is a pure hit.
	hitsBefore := f.metrics.Counter("cache_hits_total").Value()
	if v, err := f.Get("stampede-key"); err != nil || !bytes.Equal(v, want) {
		t.Fatalf("post-flight get = %q, %v", v, err)
	}
	if f.metrics.Counter("cache_hits_total").Value() != hitsBefore+1 {
		t.Fatal("post-flight get was not served from the cache")
	}
}

// TestCoalescedMissNeverServesTombstone pins the tombstone interaction:
// when the backend answers a coalesced fetch with a versioned tombstone,
// EVERY waiter gets ErrNotFound — nobody is handed a deleted value — and
// nothing is cached.
func TestCoalescedMissNeverServesTombstone(t *testing.T) {
	checkGoroutineLeaks(t)
	s := startStubBackend(t, func() *proto.Response {
		payload, err := proto.EncodeGetVPayload(99, nil)
		if err != nil {
			panic(err)
		}
		return &proto.Response{Status: proto.StatusNotFound, Payload: payload}
	})
	f := stubFrontend(t, s.l.Addr().String())

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	vals := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = f.Get("deleted-key")
		}(i)
	}
	<-s.started
	time.Sleep(100 * time.Millisecond)
	close(s.release)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if !errors.Is(errs[i], ErrNotFound) {
			t.Fatalf("reader %d: err = %v, want ErrNotFound", i, errs[i])
		}
		if vals[i] != nil {
			t.Fatalf("reader %d was served a tombstoned value: %q", i, vals[i])
		}
	}
	if got := s.getvCount(); got != 1 {
		t.Fatalf("backend saw %d fetches, want 1", got)
	}
	if _, _, ok := f.cacheGet("deleted-key"); ok {
		t.Fatal("tombstone miss left an entry in the cache")
	}
}

// TestCoalescedMissTriggersReadRepair pins that coalescing does not
// swallow read repair: the flight leader runs the full divergence-aware
// read, so an empty replica consulted before the hit is still refilled.
func TestCoalescedMissTriggersReadRepair(t *testing.T) {
	checkGoroutineLeaks(t)
	c, err := cache.NewSharded(cache.KindLRU, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:          2,
		Replication:    2,
		PartitionSeed:  5,
		Cache:          c,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	// A key whose group order puts node 0 first: with both replicas idle
	// the least-inflight order is the group order, so the read consults
	// the empty node 0 before finding the value on node 1.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("repair-key-%d", i)
		if g := f.Group(key); len(g) == 2 && g[0] == 0 {
			break
		}
	}
	want := []byte("survivor-value")
	lc.Backends[1].Store().SetVersioned(key, want, 0, 42)

	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := f.Get(key); err != nil || !bytes.Equal(v, want) {
				t.Errorf("get = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()

	// Read repair refills node 0 asynchronously, and counts the repair
	// only once the write is acked — after the store already shows it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rv, _, ver, tomb, ok := lc.Backends[0].Store().GetVersioned(key)
		refilled := ok && !tomb && ver == 42 && bytes.Equal(rv, want)
		if refilled && f.metrics.Counter("read_repair_total").Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read repair never refilled node 0 and counted it: %q ver=%d tomb=%v ok=%v read_repair_total=%d",
				rv, ver, tomb, ok, f.metrics.Counter("read_repair_total").Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailedQuorumWriteForgetsFlight pins the cache-invalidation
// interaction: after a below-quorum Set drops the cached entry, a new
// miss must start a fresh fetch rather than join any flight that began
// before the write.
func TestFailedQuorumWriteForgetsFlight(t *testing.T) {
	var g flightGroup
	// Simulate the in-flight pre-write fetch.
	release := make(chan struct{})
	started := make(chan struct{})
	go g.Do("k", func() ([]byte, error) {
		close(started)
		<-release
		return []byte("pre-write"), nil
	})
	<-started
	// Set/Del call Forget after mutating the key (frontend.go); the next
	// miss must re-fetch.
	g.Forget("k")
	v, _, shared := g.Do("k", func() ([]byte, error) { return []byte("post-write"), nil })
	if shared || string(v) != "post-write" {
		t.Fatalf("post-write miss joined the pre-write flight: %q, shared=%v", v, shared)
	}
	close(release)
}
