package kvstore

// Pipelined client transport. The serial path in client.go pays one
// full write-syscall + read-syscall round trip per request and holds a
// pooled connection exclusively for its duration; at loopback latencies
// the hot path is pure syscall and scheduler overhead. The pipelined
// path multiplexes every caller onto ONE connection: a bounded window
// of correlated frames is in flight at once, a dedicated writer
// goroutine coalesces queued frames into a single writev
// (net.Buffers), and a dedicated reader matches responses back to
// waiters by correlation ID — out of order, as the server completes
// them.
//
// Failure model: any transport error tears the whole conn down and
// fails every in-flight call with the same error ("fail-all-pending").
// Callers' errors then feed Do's retry policy — the pipe is redialed
// lazily by the next call, so a conn death costs one round of free
// retries, like a dropped pooled conn on a serial client. Response
// timeouts do NOT tear the conn down: the slot stays occupied (the
// server still owes that frame) and the late response is discarded on
// arrival; only a read deadline expiring with frames outstanding — a
// truly hung server — kills the conn.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"securecache/internal/proto"
)

// maxPipelineDepth caps ClientConfig.PipelineDepth. Beyond a few
// hundred in-flight frames the window stops buying syscall
// amortization and only adds memory and head-of-line latency.
const maxPipelineDepth = 1024

// pipeCall is one in-flight request's rendezvous point. ch is buffered
// (capacity 1) so no sender ever blocks delivering; abandoned marks a
// call whose waiter gave up (response timeout) — the reader discards
// the late response instead of delivering it.
//
// Exactly one of three things arrives on ch: the real response (from
// the reader), pipeRespTimeout (from the watchdog), or pipeRespClosed
// (from teardown). Routing every outcome through the same channel is
// what lets the waiter block in a single chanrecv instead of a
// three-way select with a timer — the measured difference at pipelined
// throughputs is double-digit percent.
type pipeCall struct {
	ch        chan *proto.Response
	deadline  time.Time
	abandoned bool
}

// Sentinel responses delivered on a pipeCall's channel in place of a
// real one. Compared by pointer identity, never read.
var (
	pipeRespTimeout = &proto.Response{}
	pipeRespClosed  = &proto.Response{}
)

// pipeCalls recycles call structs (and their channels): two heap
// allocations per round trip otherwise. A call may be pooled ONLY when
// it is provably settled — out of the pending map with an empty
// channel that nothing will ever send on again. The abandoned-timeout
// path deliberately leaks its call to the GC instead: the entry stays
// in pending until the server answers, and recycling it while the
// reader still holds a route to it would let a late response land in a
// stranger's channel.
var pipeCalls = sync.Pool{New: func() interface{} {
	return &pipeCall{ch: make(chan *proto.Response, 1)}
}}

// pipeConn is one pipelined connection: shared by every caller of a
// pipelined Client, owned by its reader goroutine for teardown.
type pipeConn struct {
	cfg  ClientConfig
	addr string
	conn net.Conn

	// window bounds the frames in flight: senders acquire a slot before
	// registering, the reader releases it when the response arrives (or
	// teardown releases all of them). Bounded in-flight is what keeps a
	// slow server from absorbing unbounded client memory.
	window  chan struct{}
	writeCh chan proto.Frame
	done    chan struct{} // closed by teardown; pc.err is set before

	mu       sync.Mutex
	pending  map[uint64]*pipeCall
	nextCorr uint64
	err      error
	// deadlineAt is when the conn's armed read deadline expires (zero =
	// unarmed). The reader only disarms it (on idle); pushing it forward
	// while responses flow is the watchdog's job, keyed off progress so
	// a silent conn still fails its Read. Guarded by mu.
	deadlineAt time.Time
	// progress counts responses delivered by the reader. The watchdog
	// re-arms the conn deadline only when this advanced since its last
	// tick — re-arming on mere pending-ness would keep a dead-silent
	// conn alive forever. Guarded by mu.
	progress uint64

	wg sync.WaitGroup
}

// pipeTimers recycles the per-call response-wait timers: one heap
// allocation per round trip is real money at pipelined throughputs.
// Timers are always stopped and drained before going back in the pool,
// so Reset on a pooled timer is race-free.
var pipeTimers = sync.Pool{New: func() interface{} {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

func pipeTimerGet(d time.Duration) *time.Timer {
	t := pipeTimers.Get().(*time.Timer)
	t.Reset(d)
	return t
}

func pipeTimerPut(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	pipeTimers.Put(t)
}

func newPipeConn(conn net.Conn, addr string, cfg ClientConfig) *pipeConn {
	pc := &pipeConn{
		cfg:     cfg,
		addr:    addr,
		conn:    conn,
		window:  make(chan struct{}, cfg.PipelineDepth),
		writeCh: make(chan proto.Frame, cfg.PipelineDepth),
		done:    make(chan struct{}),
		pending: make(map[uint64]*pipeCall, cfg.PipelineDepth),
	}
	pc.wg.Add(2)
	go pc.writeLoop()
	go pc.readLoop()
	if cfg.ReadTimeout > 0 {
		pc.wg.Add(1)
		go pc.watchdog()
	}
	return pc
}

// watchdog enforces per-call response timeouts so waiters don't have
// to: it periodically sweeps pending for calls past their deadline,
// marks them abandoned (the reader will discard the late response and
// free the window slot when it arrives), and wakes the waiter with the
// timeout sentinel. Scanning at ReadTimeout/4 granularity means a
// timeout fires within [d, d+d/4] — ReadTimeout is a floor, not an
// exact bound, which the serial path's deadline handling already
// implies. It also owns re-arming the conn's read deadline while
// calls are in flight (see readLoop).
func (pc *pipeConn) watchdog() {
	defer pc.wg.Done()
	period := pc.cfg.ReadTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTimer(period)
	defer t.Stop()
	var lastProgress uint64
	for {
		select {
		case <-pc.done:
			return
		case now := <-t.C:
			pc.mu.Lock()
			for _, call := range pc.pending {
				if !call.abandoned && now.After(call.deadline) {
					call.abandoned = true
					select {
					case call.ch <- pipeRespTimeout:
					default:
					}
				}
			}
			// Push the conn's liveness backstop forward — but only when
			// the reader actually delivered responses since the last
			// tick. Doing it here, once per tick instead of once per
			// response, keeps time.Now and the runtime timer update off
			// the reader's hot path; gating on progress means a conn
			// that goes silent keeps its last-armed deadline and fails
			// its Read within ReadTimeout+period of the last response
			// (or of the first call, via roundTrip's 0→1 arming).
			if pc.progress != lastProgress && len(pc.pending) > 0 {
				lastProgress = pc.progress
				pc.deadlineAt = now.Add(pc.cfg.ReadTimeout)
				pc.conn.SetReadDeadline(pc.deadlineAt)
			}
			pc.mu.Unlock()
			t.Reset(period)
		}
	}
}

// failErr returns the terminal conn error once done is closed.
func (pc *pipeConn) failErr() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return pc.err
	}
	return net.ErrClosed
}

// writeLoop drains writeCh, coalescing every queued frame into one
// net.Buffers writev. Under load the batch grows to whatever
// accumulated while the previous syscall ran — batching adapts to
// pressure with no timer and no added latency for a lone frame.
func (pc *pipeConn) writeLoop() {
	defer pc.wg.Done()
	bufs := make([][]byte, 0, 64)
	frames := make([]proto.Frame, 0, 64)
	// WriteTo takes its receiver by pointer, so nb lives on the heap:
	// declared once here, that is one allocation per conn, not per writev.
	var nb net.Buffers
	for {
		var first proto.Frame
		select {
		case first = <-pc.writeCh:
		case <-pc.done:
			// Teardown: release anything still queued.
			for {
				select {
				case f := <-pc.writeCh:
					f.Release()
				default:
					return
				}
			}
		}
		bufs, frames = bufs[:0], frames[:0]
		bufs = append(bufs, first.Bytes())
		frames = append(frames, first)
		// One yield before draining: callers that just received their
		// responses are runnable and about to enqueue their next frames.
		// With a free core the queue fills while the previous syscall
		// runs, but on a single P the syscall blocks every producer —
		// without this yield the adaptive batch degenerates to one frame
		// per writev. With nothing else runnable it costs ~100ns.
		runtime.Gosched()
	coalesce:
		for len(frames) < cap(frames) {
			select {
			case f := <-pc.writeCh:
				bufs = append(bufs, f.Bytes())
				frames = append(frames, f)
			default:
				break coalesce
			}
		}
		if d := pc.cfg.WriteTimeout; d > 0 {
			pc.conn.SetWriteDeadline(time.Now().Add(d))
		}
		nb = bufs
		_, err := nb.WriteTo(pc.conn) // one writev for the whole batch
		for _, f := range frames {
			f.Release()
		}
		if err != nil {
			// Closing the conn is the teardown signal: the reader's
			// blocked Read fails, and readLoop owns fail-all-pending.
			// Keep looping so queued senders drain (their writes fail
			// instantly on the closed conn until done closes).
			pc.conn.Close()
		}
	}
}

// readLoop is the demultiplexer and the single owner of teardown. The
// read deadline covers the oldest outstanding frame: armed when
// pending goes 0→1, re-armed after every response while frames remain,
// cleared when the pipe idles. An expiry with frames outstanding means
// the server hung — that kills the conn (unlike a per-call response
// timeout, which just abandons the call).
func (pc *pipeConn) readLoop() {
	defer pc.wg.Done()
	r := bufio.NewReaderSize(pc.conn, 32<<10)
	var finalErr error
	for {
		resp, err := proto.ReadResponse(r)
		if err != nil {
			if isTimeout(err) {
				pc.mu.Lock()
				idle := len(pc.pending) == 0
				if idle {
					// Stale deadline fired on an idle pipe: harmless.
					pc.conn.SetReadDeadline(time.Time{})
					pc.deadlineAt = time.Time{}
				}
				pc.mu.Unlock()
				if idle {
					continue
				}
			}
			finalErr = fmt.Errorf("kvstore: %s: pipelined conn: %w", pc.addr, err)
			break
		}
		if resp.LoadHinted && pc.cfg.OnLoadHint != nil {
			pc.cfg.OnLoadHint(resp.Load)
		}
		pc.mu.Lock()
		pc.progress++
		call, ok := pc.pending[resp.Corr]
		abandoned := false
		if ok {
			delete(pc.pending, resp.Corr)
			abandoned = call.abandoned
		}
		// Deadline upkeep while traffic flows belongs to the watchdog
		// (it re-arms every tick); the reader only disarms when the
		// pipe goes idle, so an armed deadline can't fire mid-silence.
		if len(pc.pending) == 0 && !pc.deadlineAt.IsZero() {
			pc.conn.SetReadDeadline(time.Time{})
			pc.deadlineAt = time.Time{}
		}
		pc.mu.Unlock()
		if !ok {
			// A response we never asked for: the stream is corrupt (or
			// the server is confused). Resync is impossible mid-stream.
			finalErr = fmt.Errorf("kvstore: %s: unknown correlation id %d: %w",
				pc.addr, resp.Corr, proto.ErrMalformed)
			break
		}
		<-pc.window // the slot frees when the response lands
		if !abandoned {
			call.ch <- resp // buffered: never blocks
		}
	}
	pc.teardown(finalErr)
}

// teardown fails every in-flight call with err and releases their
// window slots. Reader-owned: runs exactly once, when readLoop exits.
// Waiters are woken by a sentinel sent straight into their call
// channel (the buffered send never blocks; if the watchdog's timeout
// sentinel got there first, that outcome stands).
func (pc *pipeConn) teardown(err error) {
	pc.conn.Close()
	pc.mu.Lock()
	if err == nil {
		err = net.ErrClosed
	}
	pc.err = err
	orphans := len(pc.pending)
	for _, call := range pc.pending {
		select {
		case call.ch <- pipeRespClosed:
		default:
		}
	}
	pc.pending = make(map[uint64]*pipeCall)
	pc.mu.Unlock()
	close(pc.done) // senders blocked on window/writeCh observe this
	for ; orphans > 0; orphans-- {
		<-pc.window
	}
}

// roundTrip sends one request through the pipe and waits for its
// response. A failure before the frame reached the write queue is
// reported unsent.
func (pc *pipeConn) roundTrip(req *proto.Request) (*proto.Response, *tryError) {
	// Acquire an in-flight slot. The fast path is a non-blocking send;
	// a full window waits (bounded by WriteTimeout) and reports the
	// stall to OnWindowWait — that wait IS the backpressure signal a
	// saturated pipe exerts on its callers.
	select {
	case pc.window <- struct{}{}:
	default:
		var waitStart time.Time
		if pc.cfg.OnWindowWait != nil {
			waitStart = time.Now()
		}
		var timeC <-chan time.Time
		if d := pc.cfg.WriteTimeout; d > 0 {
			t := pipeTimerGet(d)
			defer pipeTimerPut(t)
			timeC = t.C
		}
		select {
		case pc.window <- struct{}{}:
			if pc.cfg.OnWindowWait != nil {
				pc.cfg.OnWindowWait(time.Since(waitStart))
			}
		case <-pc.done:
			return nil, &tryError{unsent: true, err: pc.failErr()}
		case <-timeC:
			return nil, &tryError{unsent: true, err: fmt.Errorf(
				"kvstore: %s %s: in-flight window full: %w", req.Op, pc.addr, os.ErrDeadlineExceeded)}
		}
	}

	// Register under a fresh correlation ID. Arming the read deadline
	// on 0→1 pending is done under mu so it serializes with the
	// reader's own deadline management.
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		<-pc.window
		return nil, &tryError{unsent: true, err: err}
	}
	pc.nextCorr++
	corr := pc.nextCorr
	call := pipeCalls.Get().(*pipeCall)
	call.abandoned = false
	if d := pc.cfg.ReadTimeout; d > 0 {
		now := time.Now()
		call.deadline = now.Add(d)
		if len(pc.pending) == 0 {
			pc.conn.SetReadDeadline(call.deadline)
			pc.deadlineAt = call.deadline
		}
	}
	pc.pending[corr] = call
	pc.mu.Unlock()

	// Encode into a pooled frame. Corr is restored so a retry of the
	// same Request on a fresh pipe gets a fresh ID.
	req.Corr = corr
	frame, err := proto.NewRequestFrame(req)
	req.Corr = 0
	if err != nil {
		pc.backOut(corr, call)
		return nil, &tryError{unsent: true, err: err}
	}

	// Fast path: a buffered send with no competing done case compiles
	// to a single non-blocking channel op, skipping selectgo entirely.
	// writeCh holds a full window, so it only fills when the writer is
	// wedged — the slow select below then keeps teardown observable.
	select {
	case pc.writeCh <- frame:
	default:
		select {
		case pc.writeCh <- frame:
		case <-pc.done:
			frame.Release()
			pc.backOut(corr, call)
			return nil, &tryError{unsent: true, err: pc.failErr()}
		}
	}

	// Wait. Every outcome arrives on call.ch — the real response from
	// the reader, or a sentinel from the watchdog (per-call timeout) or
	// teardown (conn death) — so this is one blocking receive, not a
	// select.
	switch resp := <-call.ch; resp {
	case pipeRespClosed:
		// Teardown swept the call from pending before sending, so
		// nothing will ever send on this channel again: poolable.
		pipeCalls.Put(call)
		return nil, &tryError{err: pc.failErr()}
	case pipeRespTimeout:
		// The watchdog abandoned the call but did NOT release the
		// window slot: the server still owes the frame, so the window
		// stays charged until it answers (or the conn dies). The call
		// also stays in pending — the reader holds a route to it — so
		// it must not be pooled.
		return nil, &tryError{err: fmt.Errorf(
			"kvstore: %s %s: %w", req.Op, pc.addr, os.ErrDeadlineExceeded)}
	default:
		pipeCalls.Put(call) // delivered: out of pending, ch drained
		return resp, nil
	}
}

// backOut cancels a registration whose frame never reached the write
// queue: the pending entry and its window slot are reclaimed if still
// ours (teardown may have swept both concurrently), and the call is
// recycled after draining any sentinel the watchdog or teardown landed
// in the meantime — once the entry is out of pending, nothing else can
// send.
func (pc *pipeConn) backOut(corr uint64, call *pipeCall) {
	pc.mu.Lock()
	cur, ok := pc.pending[corr]
	ok = ok && cur == call
	if ok {
		delete(pc.pending, corr)
		if len(pc.pending) == 0 {
			pc.conn.SetReadDeadline(time.Time{})
			pc.deadlineAt = time.Time{}
		}
	}
	pc.mu.Unlock()
	if ok {
		<-pc.window
		select {
		case <-call.ch:
		default:
		}
		pipeCalls.Put(call)
	}
}

// getPipe returns the live pipe, dialing one if needed. fresh reports
// whether this call established the conn (retry policy: a pre-existing
// pipe's death earns a free retry, like a stale pooled conn).
func (c *Client) getPipe() (pc *pipeConn, fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, net.ErrClosed
	}
	if c.pipe != nil {
		select {
		case <-c.pipe.done:
			c.pipe = nil // dead: fall through to redial
		default:
			return c.pipe, false, nil
		}
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, false, fmt.Errorf("kvstore: dial %s: %w", c.addr, err)
	}
	c.pipe = newPipeConn(conn, c.addr, c.cfg)
	return c.pipe, true, nil
}

// pipeTry is one attempt over the shared pipe, dialing it if needed.
// A pipe that predates the call and dies under it earns a free retry,
// like a stale pooled conn, unless this Do already took one (freeTaken)
// or a frame the server may have applied is not safe to re-send.
func (c *Client) pipeTry(req *proto.Request, freeTaken bool) (*proto.Response, *tryError) {
	pc, fresh, err := c.getPipe()
	if err != nil {
		return nil, &tryError{err: err, unsent: true}
	}
	resp, terr := pc.roundTrip(req)
	if terr != nil {
		terr.free = !fresh && !freeTaken && (terr.unsent || isIdempotentReq(req))
	}
	return resp, terr
}
