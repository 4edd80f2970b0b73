package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/workload"
)

// KeyState is what the generator remembers about the keys: the last
// acknowledged write sequence number of each, and a lock that makes the
// generator a single writer per key (so "seq >= last acked" is a sound
// check of every GET).
type KeyState struct {
	Names []string
	acked []atomic.Uint32
	wmu   []sync.Mutex
}

// NewKeyState returns the state for n keys, none written yet.
func NewKeyState(n int) *KeyState {
	ks := &KeyState{Names: make([]string, n), acked: make([]atomic.Uint32, n), wmu: make([]sync.Mutex, n)}
	for i := range ks.Names {
		ks.Names[i] = workload.KeyName(i)
	}
	return ks
}

// Acked returns the last acknowledged write sequence number of key.
func (ks *KeyState) Acked(key uint32) uint32 { return ks.acked[key].Load() }

// Target is a cluster as the generator sees it.
type Target struct {
	Clients    []*kvstore.Client
	ValueBytes int
	State      *KeyState
}

// Sample is one verified-OK reply.
type Sample struct {
	// Start is the offset from the phase start at which the op was due
	// (open loop) or sent (closed loop); Lat is reply time minus Start.
	Start, Lat int64
	Set        bool
}

// Result is the outcome of one phase.
type Result struct {
	Samples   []Sample
	Lags      []int64 // open loop: actual send minus intended send, ns
	Attempted int
	// Failure kinds; their sum is Failed.
	Errors, Busy, Wrong, Unsent int
	FirstFailure                string
	Elapsed                     time.Duration
}

// Failed returns the number of operations that did not produce a
// verified reply.
func (r *Result) Failed() int { return r.Errors + r.Busy + r.Wrong + r.Unsent }

// KV is the part of a client the generator drives. *kvstore.Client
// implements it over the wire, *kvstore.Frontend in process.
type KV interface {
	Get(key string) ([]byte, error)
	Set(key string, value []byte) error
}

// ErrWrong marks a reply that arrived but failed verification: a
// corrupt value, another key's value, or a write older than one already
// acknowledged.
var ErrWrong = errors.New("wrong or stale value")

// Ack records that write seq of key was acknowledged. The harness uses
// it when it loads keys without going through Do.
func (ks *KeyState) Ack(key, seq uint32) { ks.acked[key].Store(seq) }

// Do performs op on c and verifies the reply. buf is scratch space for
// the value of a SET; the (possibly grown) buffer is returned.
func (t *Target) Do(c KV, op Op, buf []byte) ([]byte, error) {
	ks := t.State
	name := ks.Names[op.Key]
	if op.Set {
		ks.wmu[op.Key].Lock()
		defer ks.wmu[op.Key].Unlock()
		seq := ks.acked[op.Key].Load() + 1
		buf = AppendValue(buf[:0], op.Key, seq, t.ValueBytes)
		if err := c.Set(name, buf); err != nil {
			return buf, fmt.Errorf("SET %s: %w", name, err)
		}
		ks.acked[op.Key].Store(seq)
		return buf, nil
	}
	want := ks.acked[op.Key].Load()
	v, err := c.Get(name)
	if err != nil {
		return buf, fmt.Errorf("GET %s: %w", name, err)
	}
	seq, err := CheckValue(v, op.Key, t.ValueBytes)
	if err != nil {
		return buf, fmt.Errorf("GET %s: %w: %v", name, ErrWrong, err)
	}
	if seq < want {
		return buf, fmt.Errorf("GET %s: %w: write %d returned after write %d was acknowledged", name, ErrWrong, seq, want)
	}
	return buf, nil
}

// worker accumulates one goroutine's share of a Result.
type worker struct {
	samples             []Sample
	lags                []int64
	errors, busy, wrong int
	first               string
	buf                 []byte
}

// do performs op and counts a failure by kind; it reports success.
func (w *worker) do(t *Target, c KV, op Op) bool {
	var err error
	w.buf, err = t.Do(c, op, w.buf)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrWrong):
		w.wrong++
	case errors.Is(err, kvstore.ErrBusy):
		w.busy++
	default:
		w.errors++
	}
	if w.first == "" {
		w.first = err.Error()
	}
	return false
}

func merge(ws []*worker, res *Result) {
	for _, w := range ws {
		res.Samples = append(res.Samples, w.samples...)
		res.Lags = append(res.Lags, w.lags...)
		res.Errors += w.errors
		res.Busy += w.busy
		res.Wrong += w.wrong
		if res.FirstFailure == "" {
			res.FirstFailure = w.first
		}
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks until t. It sleeps in the kernel with the calling
// thread's timer slack cut from the default 50 us to 1 us: a goroutine's
// time.Sleep is rounded up to a millisecond whenever the runtime's
// processors go idle, which between two arrivals they mostly do.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// The goroutine may be on any thread; the setting is per thread
		// and costs one cheap system call. Should it fail, the sleep is
		// 50 us coarser and the lag metric says so.
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return on a signal just loops
	}
}

// Open runs the open-loop phase: every op of st is due at its At offset
// whatever the cluster does, and its latency runs from that intended
// time, so a stall is charged to every request it delays (no coordinated
// omission). Ops still unsent grace after the last arrival count as
// failed.
//
// The senders take turns: the one holding the token claims the next
// arrival, sleeps until it is due, passes the token on and sends. The
// goroutine that wakes up is thus the one that sends — no hand-over
// between a pacer and a sender adds to the lag.
func (t *Target) Open(st *Stream, workersPerConn int, grace time.Duration) *Result {
	n := len(st.Ops)
	res := &Result{Attempted: n}
	if n == 0 {
		return res
	}
	token := make(chan struct{}, 1)
	next := 0 // the next unclaimed arrival; owned by the token's holder
	start := time.Now()
	giveUp := start.Add(time.Duration(st.At[n-1]) + grace)
	var ws []*worker
	var wg sync.WaitGroup
	for _, c := range t.Clients {
		for j := 0; j < workersPerConn; j++ {
			w := &worker{}
			ws = append(ws, w)
			wg.Add(1)
			go func(c *kvstore.Client) {
				defer wg.Done()
				for {
					<-token
					i := next
					if i == n {
						token <- struct{}{}
						return
					}
					next++
					due := start.Add(time.Duration(st.At[i]))
					sleepUntil(due)
					token <- struct{}{}
					now := time.Now()
					if now.After(giveUp) {
						continue // unsent: counted below
					}
					w.lags = append(w.lags, int64(now.Sub(due)))
					if w.do(t, c, st.Ops[i]) {
						w.samples = append(w.samples, Sample{Start: st.At[i], Lat: int64(time.Since(due)), Set: st.Ops[i].Set})
					}
				}
			}(c)
		}
	}
	token <- struct{}{}
	wg.Wait()
	res.Elapsed = time.Since(start)
	merge(ws, res)
	res.Unsent = n - len(res.Lags) // every sent op left a lag
	if res.Unsent > 0 && res.FirstFailure == "" {
		res.FirstFailure = fmt.Sprintf("%d ops not sent %v after the last arrival", res.Unsent, grace)
	}
	return res
}

// Closed runs the closed-loop phase for d: callersPerConn callers on
// each connection, each sending its next op when the previous reply
// arrives. Callers take ops from one shared sequence (wrapping around).
func (t *Target) Closed(ops []Op, callersPerConn int, d time.Duration) *Result {
	res := &Result{}
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var ws []*worker
	var wg sync.WaitGroup
	for _, c := range t.Clients {
		for j := 0; j < callersPerConn; j++ {
			w := &worker{}
			ws = append(ws, w)
			wg.Add(1)
			go func(c *kvstore.Client) {
				defer wg.Done()
				for {
					sent := time.Now()
					if !sent.Before(end) {
						return
					}
					op := ops[int((next.Add(1)-1)%int64(len(ops)))]
					if w.do(t, c, op) {
						w.samples = append(w.samples, Sample{Start: int64(sent.Sub(start)), Lat: int64(time.Since(sent)), Set: op.Set})
					}
				}
			}(c)
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	merge(ws, res)
	res.Attempted = len(res.Samples) + res.Failed()
	return res
}

// Preload writes every key once (sequence number 1) through the
// frontend, OpenWorkers writers per connection.
func (t *Target) Preload() error {
	n := len(t.State.Names)
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for _, c := range t.Clients {
		for j := 0; j < OpenWorkers; j++ {
			wg.Add(1)
			go func(c *kvstore.Client) {
				defer wg.Done()
				var buf []byte
				for firstErr.Load() == nil {
					i := next.Add(1) - 1
					if i >= int64(n) {
						return
					}
					var err error
					if buf, err = t.Do(c, Op{Key: uint32(i), Set: true}, buf); err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
			}(c)
		}
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return fmt.Errorf("loadgen: preload: %w", *e)
	}
	return nil
}
