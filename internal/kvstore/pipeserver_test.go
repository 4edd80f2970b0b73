package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"securecache/internal/proto"
)

// parkingStub is a wire-protocol backend that holds every GetV until
// release, then answers it StatusNotFound. It records how many GetVs
// were parked at once, so a test can see how many misses a frontend
// overlaps.
type parkingStub struct {
	l        net.Listener
	released chan struct{}
	once     sync.Once
	onPark   func(parked int) // called under mu
	conns    sync.WaitGroup

	mu           sync.Mutex
	parked, peak int
}

func startParkingStub(t *testing.T) *parkingStub {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &parkingStub{l: l, released: make(chan struct{})}
	s.conns.Add(1)
	go func() {
		defer s.conns.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go s.serveConn(conn)
		}
	}()
	// Registered before the frontend's cleanup, this runs after it: the
	// frontend's Close has closed every conn the stub serves.
	t.Cleanup(func() {
		s.release()
		l.Close()
		s.conns.Wait()
	})
	return s
}

func (s *parkingStub) release() { s.once.Do(func() { close(s.released) }) }

func (s *parkingStub) peakParked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

func (s *parkingStub) serveConn(conn net.Conn) {
	defer s.conns.Done()
	defer conn.Close()
	var wmu sync.Mutex
	write := func(resp *proto.Response) {
		wmu.Lock()
		proto.WriteResponse(conn, resp)
		wmu.Unlock()
	}
	r := bufio.NewReader(conn)
	for {
		req, err := proto.ReadRequest(r)
		if err != nil {
			return
		}
		switch req.Op {
		case proto.OpGetV:
			s.mu.Lock()
			s.parked++
			s.peak = max(s.peak, s.parked)
			if s.onPark != nil {
				s.onPark(s.parked)
			}
			s.mu.Unlock()
			s.conns.Add(1)
			go func(corr uint64) {
				defer s.conns.Done()
				<-s.released
				s.mu.Lock()
				s.parked--
				s.mu.Unlock()
				write(&proto.Response{Status: proto.StatusNotFound, Corr: corr})
			}(req.Corr)
		case proto.OpPing:
			write(&proto.Response{Status: proto.StatusOK, Corr: req.Corr})
		default:
			write(&proto.Response{Status: proto.StatusError, Corr: req.Corr})
		}
	}
}

// servedStubFrontend serves a cached frontend over s on a loopback port.
// Its cleanup releases s first, so closing the frontend never waits on
// a parked GetV.
func servedStubFrontend(t *testing.T, s *parkingStub) (*Frontend, string) {
	t.Helper()
	f := stubFrontend(t, s.l.Addr().String())
	t.Cleanup(s.release)
	addr, err := f.srv.listenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return f, addr
}

// TestFrontendPipelinedConnOverlapsMisses: the misses one pipelined
// client conn sends are all in flight at the backend at once. Every
// backend GetV parks until 32 have arrived, so a frontend that ran at
// most a few of a conn's requests at a time would stall here.
func TestFrontendPipelinedConnOverlapsMisses(t *testing.T) {
	checkGoroutineLeaks(t)
	const n = 32
	s := startParkingStub(t)
	s.onPark = func(parked int) {
		if parked == n {
			s.release()
		}
	}
	// Give up on the overlap well inside the frontend's read timeout, so
	// a failing run reports the peak instead of timing out.
	timer := time.AfterFunc(time.Second, s.release)
	defer timer.Stop()
	_, addr := servedStubFrontend(t, s)
	p := dialPeer(t, addr, true)
	for i := 0; i < n; i++ {
		if err := p.send(proto.Request{Op: proto.OpGet, Key: fmt.Sprintf("miss-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < n; i++ {
		resp, err := proto.ReadResponse(p.r)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Status != proto.StatusNotFound {
			t.Fatalf("response %d: status %v, want NotFound", i, resp.Status)
		}
	}
	if got := s.peakParked(); got != n {
		t.Fatalf("%d of %d misses from one pipelined conn were in flight at once", got, n)
	}
}

// TestPipelinedConnBackpressure: a peer that writes far more correlated
// frames than the conn bound and never reads gets at most pipeQueue
// handlers running; the read loop then stops reading until one
// finishes, and closing everything leaves no goroutine behind.
func TestPipelinedConnBackpressure(t *testing.T) {
	checkGoroutineLeaks(t)
	s := startParkingStub(t)
	f, addr := servedStubFrontend(t, s)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wrote := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(conn)
		for i := 1; i <= 1000; i++ {
			req := proto.Request{Op: proto.OpGet, Key: fmt.Sprintf("bp-%d", i), Corr: uint64(i)}
			if err := proto.WriteRequest(w, &req); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- w.Flush()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.peakParked() < pipeQueue && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // room for a 65th handler to show up
	if got := s.peakParked(); got != pipeQueue {
		t.Fatalf("%d handlers ran at once on one conn, want the bound %d", got, pipeQueue)
	}
	// Each request read costs one cache lookup on the read loop and, once
	// handed on, one more in Get: the read loop has read exactly one
	// frame past the running handlers and is blocked on it.
	if got, want := f.CacheStats().Misses, uint64(2*pipeQueue+1); got != want {
		t.Fatalf("read loop made %d cache lookups, want %d (blocked one frame past the bound)", got, want)
	}
	s.release()
	if err := <-wrote; err != nil {
		t.Fatalf("writing 1000 frames once the handlers drain: %v", err)
	}
}

// TestServeAllocs pins the hit paths of both roles at zero allocations
// from handler to frame: the response struct comes from the pool that
// encode returns it to.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	b := NewBackend(0)
	b.Store().SetVersioned("k", []byte("value"), 0, 7)
	f := stubFrontend(t, startStubBackend(t, nil).l.Addr().String())
	f.cachePut("k", f.fillGen("k"), 7, []byte("value"))
	for _, tc := range []struct {
		name string
		srv  *connServer
		fn   handlerFunc
		op   proto.Op
	}{
		{"backend GetV", b.srv, b.handle, proto.OpGetV},
		{"frontend fast hit", f.srv, f.fast, proto.OpGet},
	} {
		scratch := make([]byte, 0, 512)
		allocs := testing.AllocsPerRun(200, func() {
			req := proto.AcquireRequest()
			req.Op, req.Key, req.Corr = tc.op, "k", 1
			resp := tc.fn(req, &scratch)
			if resp == nil || resp.Status != proto.StatusOK {
				t.Fatalf("%s: %v", tc.name, resp)
			}
			tc.srv.encode(req, resp).Release()
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs from handler to frame, want 0", tc.name, allocs)
		}
	}
}
