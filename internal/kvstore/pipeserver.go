package kvstore

// The pipeline half of connServer: what a connection's read loop
// (serveConn) feeds. Every conn has one from accept, whether its peer
// keeps one request in flight or a window of them.
//
//	read loop ─┬─▶ fast op: answered in place ────────┬─▶ flushCh ──▶ flusher
//	           └─▶ other op ──▶ reqCh ──▶ handler pool ─┘
//	                                    (≤ pipeQueue)
//
// A hit never leaves the read loop, so it costs one goroutine hand-off,
// to the flusher. Everything else goes to the conn's handler pool, which
// grows on demand up to the conn's queue bound, not the core count: a
// frontend's handlers mostly wait on a backend round trip, and every
// miss a conn holds in flight is one more GetV the backend hop can
// batch. The flusher writes completions in whatever order they finish,
// coalescing queued frames into one writev. A peer that stops draining
// responses blocks the flusher, then the handlers on flushCh, then the
// read loop on reqCh: backpressure reaches the socket instead of
// buffering unboundedly.

import (
	"net"
	"runtime"
	"sync"

	"securecache/internal/proto"
)

// pipeQueue bounds a conn's handlers and the frames waiting
// for its flusher: a full 64-deep client window drains as one read
// syscall in, one writev out.
const pipeQueue = 64

// connPipe is one connection's handler pool and flusher.
type connPipe struct {
	reqCh   chan *proto.Request // unbuffered: taken only by an idle handler
	flushCh chan proto.Frame
	pool    int // handlers started; read loop only
	running sync.WaitGroup
	flusher sync.WaitGroup
}

// startPipe starts a connection's flusher; handlers start on demand.
func (s *connServer) startPipe(conn net.Conn) *connPipe {
	p := &connPipe{
		reqCh:   make(chan *proto.Request),
		flushCh: make(chan proto.Frame, pipeQueue),
	}
	p.flusher.Add(1)
	go func() {
		defer p.flusher.Done()
		pipeFlush(conn, p.flushCh)
	}()
	return p
}

// dispatch answers req on the read loop if fast can. Otherwise an idle
// handler takes it; failing that, a new handler is started while the
// pool is below pipeQueue, and the read loop waits for one to free up
// once it is not.
func (p *connPipe) dispatch(s *connServer, req *proto.Request, scratch *[]byte) {
	if s.fastOps.has(req.Op) {
		if resp := s.admit(req, scratch, s.fast); resp != nil {
			p.flushCh <- s.encode(req, resp)
			return
		}
	}
	select {
	case p.reqCh <- req:
	default:
		if p.pool == pipeQueue {
			p.reqCh <- req
		} else {
			p.pool++
			p.running.Add(1)
			go p.handle(s, req)
		}
	}
}

// handle serves req and then whatever the read loop hands it, until the
// conn is drained. A handler lives as long as its conn, so the stack it
// grew on its first request serves the rest. The gate slot is released
// before the flush (see admit): holding it across the flush would only
// couple admission to an unrelated conn's write stall.
func (p *connPipe) handle(s *connServer, req *proto.Request) {
	defer p.running.Done()
	scratch := make([]byte, 0, 512)
	for ok := true; ok; req, ok = <-p.reqCh {
		p.flushCh <- s.encode(req, s.admit(req, &scratch, s.handle))
	}
}

// drain is the orderly shutdown once the read loop has stopped: let the
// handlers finish, then let the flusher write (or discard, if the conn
// died) what they produced.
func (p *connPipe) drain() {
	close(p.reqCh)
	p.running.Wait()
	close(p.flushCh)
	p.flusher.Wait()
}

// pipeFlush writes completed frames in completion order, coalescing
// everything queued at each wakeup into one net.Buffers writev. After a
// write error it keeps draining (releasing frames) so handlers never
// block on a dead connection's flush channel.
func pipeFlush(conn net.Conn, flushCh <-chan proto.Frame) {
	bufs := make([][]byte, 0, pipeQueue)
	frames := make([]proto.Frame, 0, pipeQueue)
	var nb net.Buffers // escapes via WriteTo: one allocation per conn (see writeLoop)
	dead := false
	for first := range flushCh {
		if dead {
			first.Release()
			continue
		}
		bufs, frames = bufs[:0], frames[:0]
		bufs = append(bufs, first.Bytes())
		frames = append(frames, first)
		// Let the handlers drain into flushCh before the syscall: on a
		// single P they cannot run while the writev below is in flight,
		// so without this yield every batch ships one frame (see the
		// matching yield in the client's writeLoop).
		runtime.Gosched()
	coalesce:
		for len(frames) < cap(frames) {
			select {
			case f, ok := <-flushCh:
				if !ok {
					break coalesce
				}
				bufs = append(bufs, f.Bytes())
				frames = append(frames, f)
			default:
				break coalesce
			}
		}
		nb = bufs
		_, err := nb.WriteTo(conn)
		for _, f := range frames {
			f.Release()
		}
		if err != nil {
			conn.Close() // fails the read loop, which owns shutdown
			dead = true
		}
	}
}
