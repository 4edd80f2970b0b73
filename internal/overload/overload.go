// Package overload implements server-side admission control and
// client-side retry damping for the kvstore servers.
//
// The paper's provisioning rule (c* = n·k + 1) bounds each backend's load
// *in expectation*; this package is what keeps a node useful when an
// adversary (or a partial outage) pushes realized load past provisioned
// capacity anyway. Three mechanisms, composable via Gate:
//
//   - TokenBucket: a classic rate limiter. Requests beyond the sustained
//     rate (plus burst) are shed immediately with StatusBusy instead of
//     queueing, so in-budget traffic keeps its latency.
//   - Semaphore: a bounded in-flight limit with a short admission wait.
//     Bounds memory and goroutine occupancy; a full server sheds rather
//     than stacking unbounded work behind a slow resource.
//   - RetryBudget: a token bucket refilled by request *successes*. Caps
//     the ratio of retries to useful work so a client fleet cannot
//     amplify an overload into a retry storm (the mechanism popularized
//     by Finagle/Envoy retry budgets).
//
// All types are safe for concurrent use and nil-tolerant: a nil Gate or
// RetryBudget admits everything, so callers need no "is it configured"
// branches on the hot path.
package overload

import (
	"sync"
	"sync/atomic"
	"time"
)

// Defaults used by Limits.withDefaults and NewRetryBudget(0, 0).
const (
	// DefaultAdmissionWait is how long an arriving request may wait for
	// an in-flight slot before being shed. Short on purpose: waiting
	// longer than a healthy service time just moves the queue inside
	// the server.
	DefaultAdmissionWait = 2 * time.Millisecond
	// DefaultRetryBudgetMax is the retry budget's bucket capacity (also
	// its initial balance, so cold-start retries are not starved).
	DefaultRetryBudgetMax = 10
	// DefaultRetryBudgetRatio is how much budget one success refills:
	// at 0.1, sustained retries are capped near 10% of successes.
	DefaultRetryBudgetRatio = 0.1
)

// TokenBucket is a monotonic-clock token-bucket rate limiter.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a bucket sustaining rate requests/second with
// the given burst capacity (burst < 1 is raised to 1 so a full bucket
// always admits at least one request). rate <= 0 returns nil, which
// Allow treats as unlimited.
func NewTokenBucket(rate float64, burst float64) *TokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// SetRate changes the bucket's sustained rate in place (tokens already
// accrued are kept; accrual up to now happens at the old rate). The
// migration pressure controller uses this to shed migration throughput
// when backends report busy and ramp it back when they recover. rate <=
// 0 and nil receivers are no-ops — an unlimited bucket stays unlimited.
func (tb *TokenBucket) SetRate(rate float64) {
	if tb == nil || rate <= 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens += dt * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	tb.rate = rate
}

// Rate returns the current sustained rate (0 for a nil bucket).
func (tb *TokenBucket) Rate() float64 {
	if tb == nil {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rate
}

// Allow takes one token if available. Nil receiver always admits.
func (tb *TokenBucket) Allow() bool {
	if tb == nil {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens += dt * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// Semaphore bounds concurrent in-flight work.
type Semaphore struct {
	slots chan struct{}
}

// NewSemaphore returns a semaphore with n slots; n <= 0 returns nil,
// which admits everything.
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		return nil
	}
	return &Semaphore{slots: make(chan struct{}, n)}
}

// TryAcquire takes a slot, waiting up to wait for one to free. Nil
// receiver always admits.
func (s *Semaphore) TryAcquire(wait time.Duration) bool {
	if s == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// Release frees a slot taken by TryAcquire.
func (s *Semaphore) Release() {
	if s == nil {
		return
	}
	<-s.slots
}

// Inflight returns the current number of held slots.
func (s *Semaphore) Inflight() int {
	if s == nil {
		return 0
	}
	return len(s.slots)
}

// Limits configures a Gate. The zero value means "no limits" (every
// field 0 = that mechanism disabled), so embedding it in a server config
// is backward compatible.
type Limits struct {
	// MaxInflight bounds concurrently admitted requests (0 = unlimited).
	MaxInflight int
	// MaxConns bounds concurrently open connections (0 = unlimited).
	// Excess connections are closed at accept time, before they can
	// hold a handler goroutine.
	MaxConns int
	// RateLimit bounds sustained admitted requests/second
	// (0 = unlimited).
	RateLimit float64
	// RateBurst is the rate limiter's burst capacity
	// (0 = max(1, RateLimit)).
	RateBurst float64
	// AdmissionWait is how long a request may wait for an in-flight
	// slot before being shed (0 = DefaultAdmissionWait, negative = no
	// wait).
	AdmissionWait time.Duration
}

// Enabled reports whether any limit is configured.
func (l Limits) Enabled() bool {
	return l.MaxInflight > 0 || l.MaxConns > 0 || l.RateLimit > 0
}

func (l Limits) withDefaults() Limits {
	if l.RateLimit > 0 && l.RateBurst <= 0 {
		l.RateBurst = l.RateLimit
		if l.RateBurst < 1 {
			l.RateBurst = 1
		}
	}
	switch {
	case l.AdmissionWait == 0:
		l.AdmissionWait = DefaultAdmissionWait
	case l.AdmissionWait < 0:
		l.AdmissionWait = 0
	}
	return l
}

// Gate is a server's combined admission controller: connection cap, rate
// limit, and in-flight bound. A nil Gate admits everything.
type Gate struct {
	lim    Limits
	bucket *TokenBucket
	sem    *Semaphore
	conns  atomic.Int64
	// frames counts admitted requests currently in flight. Tracked
	// per-frame (not per-conn slot) so the count stays meaningful on
	// pipelined connections, where one conn dispatches many requests
	// concurrently — and regardless of whether MaxInflight is set.
	frames atomic.Int64
}

// NewGate builds a Gate from lim, or returns nil when lim is all-zero.
func NewGate(lim Limits) *Gate {
	if !lim.Enabled() {
		return nil
	}
	lim = lim.withDefaults()
	return &Gate{
		lim:    lim,
		bucket: NewTokenBucket(lim.RateLimit, lim.RateBurst),
		sem:    NewSemaphore(lim.MaxInflight),
	}
}

// AdmitConn reserves a connection slot, reporting false when the server
// is at MaxConns. Pair with ReleaseConn.
func (g *Gate) AdmitConn() bool {
	if g == nil || g.lim.MaxConns <= 0 {
		return true
	}
	if g.conns.Add(1) > int64(g.lim.MaxConns) {
		g.conns.Add(-1)
		return false
	}
	return true
}

// ReleaseConn frees a slot reserved by a successful AdmitConn.
func (g *Gate) ReleaseConn() {
	if g == nil || g.lim.MaxConns <= 0 {
		return
	}
	g.conns.Add(-1)
}

// Admit decides one request: the rate limiter is consulted first (cheap,
// never blocks), then an in-flight slot is acquired with the configured
// short wait. False means "shed now with StatusBusy". A true return must
// be paired with Release once the request has been served.
func (g *Gate) Admit() bool {
	if g == nil {
		return true
	}
	if !g.bucket.Allow() {
		return false
	}
	if !g.sem.TryAcquire(g.lim.AdmissionWait) {
		return false
	}
	g.frames.Add(1)
	return true
}

// Release frees the in-flight slot taken by a successful Admit.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.frames.Add(-1)
	g.sem.Release()
}

// Inflight returns the number of currently admitted requests (frames,
// not connections — on a pipelined conn each in-flight frame counts).
func (g *Gate) Inflight() int {
	if g == nil {
		return 0
	}
	return int(g.frames.Load())
}

// RetryBudget caps retries as a fraction of successful work. Each retry
// spends one token; each success refills ratio tokens (capped at max).
// The budget starts full so isolated cold-start failures still get their
// configured retries; only a sustained failure wave drains it.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64

	exhausted atomic.Uint64
}

// NewRetryBudget returns a budget with the given capacity and
// per-success refill ratio (0 = the package defaults; max < 0 returns
// nil, which Spend always allows).
func NewRetryBudget(max, ratio float64) *RetryBudget {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = DefaultRetryBudgetMax
	}
	if ratio <= 0 {
		ratio = DefaultRetryBudgetRatio
	}
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// OnSuccess credits the budget for one successful request.
func (b *RetryBudget) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Spend consumes one token for a retry, reporting false (and counting an
// exhaustion) when the budget is dry. Nil receiver always allows.
func (b *RetryBudget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		b.exhausted.Add(1)
	}
	return ok
}

// Exhausted returns how many retries the budget has refused.
func (b *RetryBudget) Exhausted() uint64 {
	if b == nil {
		return 0
	}
	return b.exhausted.Load()
}

// Tokens returns the current balance (for tests and introspection).
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
