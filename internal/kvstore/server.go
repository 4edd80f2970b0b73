package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/metrics"
	"securecache/internal/overload"
	"securecache/internal/proto"
)

// opSet is a small set of wire ops (every valid proto.Op is below 32).
type opSet uint32

func ops(list ...proto.Op) opSet {
	var s opSet
	for _, op := range list {
		s |= 1 << op
	}
	return s
}

func (s opSet) has(op proto.Op) bool { return s&(1<<op) != 0 }

// handlerFunc answers one request; see connServer for the scratch rule.
type handlerFunc func(req *proto.Request, scratch *[]byte) *proto.Response

// connServer is the one connection server both node roles run on: it
// owns the listener, the live connections, admission control and the
// per-connection read loop. A Backend or Frontend is only its handler —
// the fields under "handler contract", set once before serve. A handler
// builds its response from proto.AcquireResponse: encode releases every
// response it frames back to that pool.
//
// Scratch: handle and fast receive a reusable payload buffer and may
// return a response that aliases it. There is one buffer per goroutine
// that dispatches — the connection's read loop (lockstep requests and
// pipelined fast answers) and each pipeline handler — and that goroutine
// encodes the response into a frame of its own before it dispatches
// again, which is the only thing that makes the aliasing safe.
type connServer struct {
	role string // log prefix: "backend N" / "frontend"

	// Handler contract. handle serves any request and may block on I/O;
	// it is called concurrently. exempt ops skip admission: probes,
	// monitoring and the membership view must keep answering on a
	// saturated node — that is exactly when they matter. fast answers a
	// fastOps request from memory without blocking, or returns nil for
	// "needs the full path" having counted nothing, so a request that
	// falls through is still counted once (by handle). load, when set,
	// is the tier in-flight gauge: raised around every admitted call and
	// stamped on every response as TierClient's two-choice load hint.
	handle  handlerFunc
	fast    handlerFunc
	exempt  opSet
	fastOps opSet
	load    *atomic.Int64

	gate        *overload.Gate   // nil = unlimited
	shedTotal   *metrics.Counter // requests answered StatusBusy
	connsShed   *metrics.Counter // connections rejected at accept
	pipelined   *metrics.Counter // connections upgraded to the pipeline
	idleTimeout atomic.Int64     // ns; 0 = no limit

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

func newConnServer(role string, reg *metrics.Registry, lim overload.Limits) *connServer {
	return &connServer{
		role:      role,
		gate:      overload.NewGate(lim),
		shedTotal: reg.Counter("shed_total"),
		connsShed: reg.Counter("busy_conns_rejected_total"),
		pipelined: reg.Counter("pipelined_conns_total"),
		conns:     make(map[net.Conn]bool),
	}
}

// listenAndServe binds addr and serves it on a background goroutine,
// returning the bound address.
func (s *connServer) listenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: %s listen: %w", s.role, err)
	}
	go func() {
		if err := s.serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("kvstore: %s serve: %v", s.role, err)
		}
	}()
	return l.Addr().String(), nil
}

// serve accepts connections on l until close. It always returns a
// non-nil error (net.ErrClosed after a clean close).
func (s *connServer) serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// close raced ahead of this goroutine and never saw l: close it
		// here or the port stays bound with nobody accepting (a crashed
		// node could then never restart on its own address).
		l.Close()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// Shed excess connections before they can hold a goroutine: a
		// connection flood must not starve established clients.
		if !s.gate.AdmitConn() {
			s.connsShed.Inc()
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.gate.ReleaseConn()
			return net.ErrClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn is the read loop of one connection. A connection starts in
// lockstep: each uncorrelated request is dispatched inline and answered
// before the next is read. The first frame carrying a correlation ID
// upgrades the connection to the pipeline (pipeserver.go) for the rest
// of its life: fast ops are still answered here, everything else runs
// concurrently, up to pipeQueue at once. Legacy clients never send a
// correlation ID, so the upgrade is invisible to them.
func (s *connServer) serveConn(conn net.Conn) {
	var pipe *connPipe // nil while the peer is lockstep
	defer func() {
		if pipe != nil {
			pipe.drain()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.gate.ReleaseConn()
		s.wg.Done()
	}()
	r := bufio.NewReader(conn)
	scratch := make([]byte, 0, 512)
	for {
		// Idle deadline: without it a slow-loris peer (connect, send
		// nothing) holds this goroutine and connection forever.
		if d := time.Duration(s.idleTimeout.Load()); d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		req, err := proto.ReadRequest(r)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				// Malformed input or mid-frame disconnect: drop the
				// connection (the protocol has no resync point).
				log.Printf("kvstore: %s: read: %v", s.role, err)
			}
			return
		}
		switch {
		case req.Corr != 0:
			if pipe == nil {
				pipe = s.startPipe(conn)
				s.pipelined.Inc()
			}
			pipe.dispatch(s, req, &scratch)
		case pipe != nil:
			// A pipelined peer never reverts to lockstep mid-stream; an
			// uncorrelated frame here means the stream is corrupt.
			log.Printf("kvstore: %s: uncorrelated frame on pipelined conn", s.role)
			return
		default:
			// Lockstep holds the in-flight slot until the response is
			// written, so a peer draining responses slowly occupies
			// capacity honestly instead of letting the node over-admit.
			resp, slot := s.admit(req, &scratch, s.handle)
			frame := s.encode(req, resp)
			_, err = conn.Write(frame.Bytes())
			frame.Release()
			if slot {
				s.gate.Release()
			}
			if err != nil {
				return
			}
		}
	}
}

// admit runs one request through admission control and fn (handle or
// fast): a saturated node answers StatusBusy, counted in shed_total,
// without calling fn. slot reports an in-flight slot the caller must
// release. The load hint is read after the in-flight decrement so a
// client's own completed request is not still counted.
func (s *connServer) admit(req *proto.Request, scratch *[]byte, fn handlerFunc) (resp *proto.Response, slot bool) {
	switch {
	case s.exempt.has(req.Op):
		resp = fn(req, scratch)
	case s.gate.Admit():
		slot = true
		if s.load != nil {
			s.load.Add(1)
		}
		resp = fn(req, scratch)
		if s.load != nil {
			s.load.Add(-1)
		}
	default:
		s.shedTotal.Inc()
		resp = reply(proto.StatusBusy, nil)
	}
	if resp != nil && s.load != nil {
		if n := s.load.Load(); n > 0 {
			resp.Load = uint32(n)
		}
		resp.LoadHinted = true
	}
	return resp, slot
}

// reply builds a handler's response in a pooled struct (see connServer).
func reply(status proto.Status, payload []byte) *proto.Response {
	resp := proto.AcquireResponse()
	resp.Status, resp.Payload = status, payload
	return resp
}

// encode frames resp under req's correlation ID and retires both
// structs: the frame owns an encoded copy, and the stored key/value
// slices they referenced live on unaffected. An unencodable response
// (an oversized payload) is replaced by a sanitized error, so the
// request is still answered and a pipelined client's window slot frees.
func (s *connServer) encode(req *proto.Request, resp *proto.Response) proto.Frame {
	resp.Corr = req.Corr
	frame, err := proto.NewResponseFrame(resp)
	if err != nil {
		log.Printf("kvstore: %s: encoding response: %v", s.role, err)
		// A fixed status and a short payload always encode.
		frame, _ = proto.NewResponseFrame(&proto.Response{
			Status:  proto.StatusError,
			Payload: []byte("response encoding failed: internal error"),
			Corr:    req.Corr,
		})
	}
	proto.ReleaseRequest(req)
	proto.ReleaseResponse(resp)
	return frame
}

// close stops accepting, closes every connection and waits for the read
// loops (and their pipelines) to drain. first is false, and nothing is
// done, on any call after the first.
func (s *connServer) close() (first bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return true, err
}
