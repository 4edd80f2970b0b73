package kvstore

// The pipeline half of connServer: what a connection's read loop
// (serveConn) feeds once its peer has sent a correlated frame.
//
//	read loop ──▶ reqCh ──▶ worker pool ──▶ flushCh ──▶ flusher
//
// Workers execute requests concurrently (this is what lets one conn
// saturate every core, and lets a frontend overlap its backend fan-out
// across requests); the flusher writes completions back in whatever
// order they finish, coalescing queued frames into a single writev.
// Both channels are bounded, so a peer that stops draining responses
// eventually blocks the workers and then the read loop — backpressure
// propagates to the socket instead of buffering unboundedly.

import (
	"net"
	"runtime"
	"sync"

	"securecache/internal/proto"
)

// pipeWorkersPerConn sizes the per-connection worker pool: enough to
// cover the cores for CPU-bound backend handlers, with a floor of 4 so
// a frontend's I/O-bound handlers (each blocks on a backend round
// trip) still overlap even on small machines.
func pipeWorkersPerConn() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 16 {
		n = 16
	}
	return n
}

// connPipe is one upgraded connection's worker pool and flusher.
type connPipe struct {
	reqCh   chan *proto.Request
	flushCh chan proto.Frame
	workers sync.WaitGroup
	flusher sync.WaitGroup
	// inline lets the read loop answer fast ops itself. It is set only
	// when the scheduler has no real parallelism (GOMAXPROCS or NumCPU
	// is 1): there, handing a request to a worker cannot overlap
	// execution anyway, and the two goroutine switches it costs are pure
	// overhead. With parallelism available the worker pool wins — one
	// conn can fan its requests across cores.
	inline bool
}

// startPipe starts the pipeline of an upgraded connection.
func (s *connServer) startPipe(conn net.Conn) *connPipe {
	workers := pipeWorkersPerConn()
	// Queue depth beyond the worker count is what feeds the batched
	// flusher: with room for a full client window on both channels, a
	// 64-deep burst drains as one read syscall in, one writev out. The
	// bound still holds — a peer that stops reading responses fills
	// flushCh, then reqCh, then the socket.
	queue := 4 * workers
	if queue < 64 {
		queue = 64
	}
	p := &connPipe{
		reqCh:   make(chan *proto.Request, queue),
		flushCh: make(chan proto.Frame, queue),
		inline:  runtime.GOMAXPROCS(0) == 1 || runtime.NumCPU() == 1,
	}
	p.flusher.Add(1)
	go func() {
		defer p.flusher.Done()
		pipeFlush(conn, p.flushCh)
	}()
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			scratch := make([]byte, 0, 512)
			for req := range p.reqCh {
				// The gate slot is released when the handler returns
				// rather than after the flush: with concurrent dispatch
				// the bounded flush channel is what bounds a slow-draining
				// peer, so holding the slot across the flush would only
				// couple admission to an unrelated conn's write stall.
				resp, slot := s.admit(req, &scratch, s.handle)
				if slot {
					s.gate.Release()
				}
				p.flushCh <- s.encode(req, resp)
			}
		}()
	}
	return p
}

// drain is the orderly shutdown once the read loop has stopped: no new
// requests, let workers finish what they took, then let the flusher
// write (or discard, if the conn died) what they produced.
func (p *connPipe) drain() {
	close(p.reqCh)
	p.workers.Wait()
	close(p.flushCh)
	p.flusher.Wait()
}

// pipeFlush writes completed frames in completion order, coalescing
// everything queued at each wakeup into one net.Buffers writev. After a
// write error it keeps draining (releasing frames) so workers never
// block on a dead connection's flush channel.
func pipeFlush(conn net.Conn, flushCh <-chan proto.Frame) {
	bufs := make([][]byte, 0, 64)
	frames := make([]proto.Frame, 0, 64)
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
		// Let the workers drain into flushCh before the syscall: on a
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
