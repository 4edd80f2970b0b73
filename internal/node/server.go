package node

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

// OpSet is a small set of wire ops (every valid proto.Op is below 32).
type OpSet uint32

// Ops returns the set of the listed ops.
func Ops(list ...proto.Op) OpSet {
	var s OpSet
	for _, op := range list {
		s |= 1 << op
	}
	return s
}

func (s OpSet) has(op proto.Op) bool { return s&(1<<op) != 0 }

// HandlerFunc answers one request; see ConnServer for the scratch rule.
type HandlerFunc func(req *proto.Request, scratch *[]byte) *proto.Response

// ConnServer is the one connection server both serving roles run on:
// it owns the listener, the live connections, admission control and the
// per-connection read loop. A Backend or the frontend is only its
// handler — the exported fields, set once before Serve. A handler
// builds its response with Reply (from proto.AcquireResponse): encode
// releases every response it frames back to that pool.
//
// Scratch: handle and fast receive a reusable payload buffer and may
// return a response that aliases it. There is one buffer per goroutine
// that dispatches — the connection's read loop (fast answers) and each
// of its handlers — and that goroutine encodes the response into a frame
// of its own before it dispatches again, which is the only thing that
// makes the aliasing safe.
type ConnServer struct {
	role string // log prefix: "backend N" / "frontend"

	// Handler contract. Handle serves any request and may block on I/O;
	// it is called concurrently. Exempt ops skip admission: probes,
	// monitoring and the membership view must keep answering on a
	// saturated node — that is exactly when they matter. Fast answers a
	// FastOps request from memory without blocking, or returns nil for
	// "needs the full path" having counted nothing, so a request that
	// falls through is still counted once (by Handle). Load, when set,
	// is the tier in-flight gauge: raised around every admitted call and
	// stamped on every response as the tier client's two-choice load
	// hint.
	Handle  HandlerFunc
	Fast    HandlerFunc
	Exempt  OpSet
	FastOps OpSet
	Load    *atomic.Int64

	gate        *overload.Gate   // nil = unlimited
	shedTotal   *metrics.Counter // requests answered StatusBusy
	connsShed   *metrics.Counter // connections rejected at accept
	idleTimeout atomic.Int64     // ns; 0 = no limit

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewConnServer returns a server that logs as role and counts sheds in
// reg, under the admission limits lim (zero = unlimited).
func NewConnServer(role string, reg *metrics.Registry, lim overload.Limits) *ConnServer {
	return &ConnServer{
		role:      role,
		gate:      overload.NewGate(lim),
		shedTotal: reg.Counter("shed_total"),
		connsShed: reg.Counter("busy_conns_rejected_total"),
		conns:     make(map[net.Conn]bool),
	}
}

// SetIdleTimeout bounds how long a connection may sit between requests
// before the server drops it (0 = forever). Takes effect on each
// connection's next read.
func (s *ConnServer) SetIdleTimeout(d time.Duration) { s.idleTimeout.Store(int64(d)) }

// ListenAndServe binds addr and serves it on a background goroutine,
// returning the bound address.
func (s *ConnServer) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("node: %s listen: %w", s.role, err)
	}
	go func() {
		if err := s.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("node: %s serve: %v", s.role, err)
		}
	}()
	return l.Addr().String(), nil
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (s *ConnServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close raced ahead of this goroutine and never saw l: close it
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

// serveConn is the read loop of one connection. Every frame must carry
// a correlation ID, and every request goes through the conn's pipeline
// (pipeserver.go), which a serial peer and a pipelining one share: fast
// ops are answered here, everything else runs on the conn's handlers, up
// to PipeQueue at once. An uncorrelated frame is malformed, so it drops
// the conn like any other undecodable frame.
func (s *ConnServer) serveConn(conn net.Conn) {
	pipe := s.startPipe(conn)
	defer func() {
		pipe.drain()
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
		if err == nil && req.Corr == 0 {
			proto.ReleaseRequest(req)
			err = fmt.Errorf("%w: uncorrelated frame", proto.ErrMalformed)
		}
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				// Malformed input or mid-frame disconnect: drop the
				// connection (the protocol has no resync point).
				log.Printf("node: %s: read: %v", s.role, err)
			}
			return
		}
		pipe.dispatch(s, req, &scratch)
	}
}

// admit runs one request through admission control and fn (Handle or
// Fast): a saturated node answers StatusBusy, counted in shed_total,
// without calling fn. An admitted request holds its in-flight slot only
// while fn runs: the bounded flush channel, not the slot, is what holds
// back a peer that drains its responses slowly. The load hint is read
// after the in-flight decrement so a client's own completed request is
// not still counted.
func (s *ConnServer) admit(req *proto.Request, scratch *[]byte, fn HandlerFunc) *proto.Response {
	var resp *proto.Response
	switch {
	case s.Exempt.has(req.Op):
		resp = fn(req, scratch)
	case s.gate.Admit():
		if s.Load != nil {
			s.Load.Add(1)
		}
		resp = fn(req, scratch)
		if s.Load != nil {
			s.Load.Add(-1)
		}
		s.gate.Release()
	default:
		s.shedTotal.Inc()
		resp = Reply(proto.StatusBusy, nil)
	}
	if resp != nil && s.Load != nil {
		if n := s.Load.Load(); n > 0 {
			resp.Load = uint32(n)
		}
		resp.LoadHinted = true
	}
	return resp
}

// Reply builds a handler's response in a pooled struct (see ConnServer).
func Reply(status proto.Status, payload []byte) *proto.Response {
	resp := proto.AcquireResponse()
	resp.Status, resp.Payload = status, payload
	return resp
}

// encode frames resp under req's correlation ID and retires both
// structs: the frame owns an encoded copy, and the stored key/value
// slices they referenced live on unaffected. An unencodable response
// (an oversized payload) is replaced by a sanitized error, so the
// request is still answered and the client's window slot frees.
func (s *ConnServer) encode(req *proto.Request, resp *proto.Response) proto.Frame {
	resp.Corr = req.Corr
	frame, err := proto.NewResponseFrame(resp)
	if err != nil {
		log.Printf("node: %s: encoding response: %v", s.role, err)
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

// Close stops accepting, closes every connection and waits for the read
// loops (and their pipelines) to drain. first is false, and nothing is
// done, on any call after the first.
func (s *ConnServer) Close() (first bool, err error) {
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

// Conns returns the number of connections the server holds open.
func (s *ConnServer) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
