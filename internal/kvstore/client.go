package kvstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"securecache/internal/overload"
	"securecache/internal/proto"
)

// Default transport parameters for ClientConfig. A zero field in the
// config takes the corresponding default; a negative field disables the
// mechanism entirely.
const (
	DefaultDialTimeout     = 5 * time.Second
	DefaultReadTimeout     = 2 * time.Second
	DefaultWriteTimeout    = 2 * time.Second
	DefaultMaxRetries      = 2
	DefaultRetryBackoff    = 5 * time.Millisecond
	DefaultMaxRetryBackoff = 250 * time.Millisecond
)

// ClientConfig bounds how long a single request may hold the caller and
// how transient transport failures are retried. The zero value means
// "all defaults"; set a field negative to disable it (no deadline, no
// retries).
type ClientConfig struct {
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// ReadTimeout bounds waiting for a response after the request is
	// written. This is what keeps a hung (accepting but unresponsive)
	// server from blocking the caller forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one request.
	WriteTimeout time.Duration
	// MaxRetries bounds budgeted retries per Do call: fresh-dial
	// failures (any op) and post-dial failures of idempotent ops.
	// Failures on a reused pooled connection are retried outside this
	// budget (at most once per pooled conn, see Do). Timeouts are never
	// retried — a slow server stays slow; the caller should fail over.
	MaxRetries int
	// RetryBackoff is the base for exponential backoff between retries;
	// the actual sleep is jittered in [base/2, base) per attempt.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth.
	MaxRetryBackoff time.Duration
	// OnRetry, when non-nil, is invoked once per retry (both budgeted
	// and reused-conn retries). The frontend hooks its retries_total
	// counter here.
	OnRetry func()
	// RetryBudget, when non-nil, caps budgeted retries as a fraction of
	// successes: each retry spends one token, each success refills a
	// fraction. Shared across clients it bounds a fleet's aggregate
	// retry amplification — a retry storm against an overloaded cluster
	// drains the budget and the storm stops. Reused-conn retries are
	// exempt (they are bounded by the pool size and recover from benign
	// idle drops, not from overload).
	RetryBudget *overload.RetryBudget
	// OnRetrySuppressed, when non-nil, is invoked each time the retry
	// budget refuses a retry the MaxRetries policy would have allowed.
	OnRetrySuppressed func()
	// MaxIdleConns bounds the idle connection pool (0 =
	// DefaultMaxIdleConns, negative = no pooling: every request dials).
	// Size it to the caller's concurrency — each concurrent request
	// beyond the pool pays a fresh dial once the pool is empty.
	MaxIdleConns int
	// OnLoadHint, when non-nil, is invoked with the server's load hint
	// each time a response frame carries one (tier frontends stamp every
	// frame with their in-flight count). TierClient hooks its per-
	// frontend load table here; the hint is delivered before Do returns,
	// so the next pick sees it. On a pipelined client the hook fires
	// from the reader goroutine and must be safe for concurrent use.
	OnLoadHint func(load uint32)
	// PipelineDepth > 0 switches the client to the pipelined transport
	// (pipeline.go): all callers share one connection carrying up to
	// PipelineDepth correlated frames in flight, written in writev
	// batches and matched out of order. 0 or negative keeps the lockstep
	// conn-per-exchange transport — except in FrontendConfig.Client,
	// where 0 means DefaultBackendPipelineDepth and only a negative
	// depth is lockstep. Depths above 1024 are clamped.
	PipelineDepth int
	// OnWindowWait, when non-nil, is invoked with the time a pipelined
	// request spent blocked on the full in-flight window before
	// acquiring a slot. It fires only when the window was full (fast
	// acquisitions are silent) and may be called concurrently.
	OnWindowWait func(wait time.Duration)
}

func defDur(v, def time.Duration) time.Duration {
	if v < 0 {
		return 0
	}
	if v == 0 {
		return def
	}
	return v
}

// withDefaults resolves the zero/negative conventions into literal values
// (0 = disabled from here on).
func (cfg ClientConfig) withDefaults() ClientConfig {
	cfg.DialTimeout = defDur(cfg.DialTimeout, DefaultDialTimeout)
	cfg.ReadTimeout = defDur(cfg.ReadTimeout, DefaultReadTimeout)
	cfg.WriteTimeout = defDur(cfg.WriteTimeout, DefaultWriteTimeout)
	switch {
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	}
	cfg.RetryBackoff = defDur(cfg.RetryBackoff, DefaultRetryBackoff)
	cfg.MaxRetryBackoff = defDur(cfg.MaxRetryBackoff, DefaultMaxRetryBackoff)
	switch {
	case cfg.MaxIdleConns < 0:
		cfg.MaxIdleConns = 0
	case cfg.MaxIdleConns == 0:
		cfg.MaxIdleConns = DefaultMaxIdleConns
	}
	switch {
	case cfg.PipelineDepth < 0:
		cfg.PipelineDepth = 0
	case cfg.PipelineDepth > maxPipelineDepth:
		cfg.PipelineDepth = maxPipelineDepth
	}
	return cfg
}

// Client talks the proto wire format to one server (a backend or a
// frontend — the protocol is the same). It maintains a small pool of
// connections so concurrent callers do not serialize on one socket.
// Client is safe for concurrent use.
type Client struct {
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	idle   []*clientConn
	pipe   *pipeConn // live pipelined conn (PipelineDepth > 0 only)
	closed bool
}

type clientConn struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	reused bool // came from the idle pool (the peer may have dropped it)
}

// DefaultMaxIdleConns is the default per-client idle pool bound
// (ClientConfig.MaxIdleConns).
const DefaultMaxIdleConns = 8

// NewClient returns a client for addr with default deadlines and retry
// policy. Connections are dialed lazily.
func NewClient(addr string) *Client {
	return NewClientWithConfig(addr, ClientConfig{})
}

// NewClientWithConfig returns a client for addr with the given transport
// configuration (zero fields take defaults, negative fields disable).
func NewClientWithConfig(addr string, cfg ClientConfig) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, net.ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		cc.reused = true
		return cc, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", c.addr, err)
	}
	return &clientConn{
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
	}, nil
}

func (c *Client) putConn(cc *clientConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.cfg.MaxIdleConns {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.conn.Close()
}

// tryError carries enough context for Do's retry policy: where in the
// request lifecycle the failure happened and whether the connection came
// from the idle pool.
type tryError struct {
	stage  string // "dial" | "write" | "read"
	reused bool
	err    error
}

func (e *tryError) Error() string { return e.err.Error() }
func (e *tryError) Unwrap() error { return e.err }

// try performs one request/response exchange on one connection.
func (c *Client) try(req *proto.Request) (*proto.Response, *tryError) {
	cc, err := c.getConn()
	if err != nil {
		return nil, &tryError{stage: "dial", err: err}
	}
	if d := c.cfg.WriteTimeout; d > 0 {
		cc.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := proto.WriteRequest(cc.w, req); err == nil {
		err = cc.w.Flush()
	}
	if err != nil {
		cc.conn.Close()
		return nil, &tryError{stage: "write", reused: cc.reused, err: err}
	}
	if d := c.cfg.ReadTimeout; d > 0 {
		cc.conn.SetReadDeadline(time.Now().Add(d))
	}
	resp, err := proto.ReadResponse(cc.r)
	if err != nil {
		// Transport errors close the connection (the protocol cannot
		// resync mid-stream).
		cc.conn.Close()
		return nil, &tryError{stage: "read", reused: cc.reused,
			err: fmt.Errorf("kvstore: %s %s: %w", req.Op, c.addr, err)}
	}
	cc.conn.SetDeadline(time.Time{})
	c.putConn(cc)
	return resp, nil
}

// isIdempotentReq reports whether re-sending req after an ambiguous
// failure (the server may or may not have processed it) is safe. Reads
// and Del (documented idempotent) are; an unversioned Set is re-sent
// only when the failure guarantees the server never saw it (dial
// failure, stale pooled conn). A versioned Set IS idempotent: the store
// applies it highest-version-wins, so a duplicate delivery is a no-op
// and a reordered duplicate can never clobber a newer write.
func isIdempotentReq(req *proto.Request) bool {
	switch req.Op {
	case proto.OpGet, proto.OpGetV, proto.OpMGet, proto.OpPing, proto.OpStats, proto.OpDel, proto.OpScan,
		proto.OpInvalidate:
		return true
	case proto.OpSet:
		return req.Ver != 0
	case proto.OpCas:
		// A CAS with an explicit new version is safe to re-send: a
		// replica that already applied it answers success again
		// (duplicate detection in Store.CasVersioned), and the version
		// precondition rejects any reordered stale duplicate. Without
		// one, a retry could double-apply with two different assigned
		// versions.
		return req.Ver != 0
	default:
		return false
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Do sends one request and reads its response, retrying transient
// transport failures:
//
//   - A failure on a reused pooled connection is retried transparently on
//     a fresh connection, regardless of op: the peer dropping an idle
//     conn (restart, idle-timeout) is indistinguishable from it never
//     having seen the request. These retries are bounded by the pool
//     size, not MaxRetries.
//   - Dial failures (request provably unsent) and post-dial failures of
//     idempotent ops are retried up to MaxRetries times with jittered
//     exponential backoff.
//   - Deadline expiries are never retried: a saturated server stays
//     saturated, and the caller (the frontend) should fail over to
//     another replica instead of burning its latency budget here.
func (c *Client) Do(req *proto.Request) (*proto.Response, error) {
	if c.cfg.PipelineDepth > 0 {
		return c.pipeDo(req)
	}
	budget := c.cfg.MaxRetries
	for attempt := 0; ; attempt++ {
		resp, terr := c.try(req)
		if terr == nil {
			// A completed exchange (other than a shed) earns the retry
			// budget back a fraction of a token.
			if resp.Status != proto.StatusBusy {
				c.cfg.RetryBudget.OnSuccess()
			}
			if resp.LoadHinted && c.cfg.OnLoadHint != nil {
				c.cfg.OnLoadHint(resp.Load)
			}
			return resp, nil
		}
		if errors.Is(terr.err, net.ErrClosed) || isTimeout(terr.err) {
			return nil, terr.err
		}
		if terr.reused {
			// Free retry: a request that dies on a pooled conn almost
			// surely raced the peer closing it. Each such retry burns
			// one pooled conn, so this terminates after ≤ MaxIdleConns
			// rounds even with a poisoned pool.
			c.noteRetry()
			continue
		}
		retryable := terr.stage == "dial" || isIdempotentReq(req)
		if !retryable || budget <= 0 {
			return nil, terr.err
		}
		if !c.cfg.RetryBudget.Spend() {
			// The fleet-wide retry budget is dry: surfacing the error
			// now is what keeps a mass failure from amplifying into a
			// retry storm (each caller still fails over across
			// replicas; it just stops hammering this one).
			if c.cfg.OnRetrySuppressed != nil {
				c.cfg.OnRetrySuppressed()
			}
			return nil, terr.err
		}
		budget--
		c.noteRetry()
		c.backoff(attempt)
	}
}

func (c *Client) noteRetry() {
	if c.cfg.OnRetry != nil {
		c.cfg.OnRetry()
	}
}

// backoff sleeps for a jittered exponential delay: uniformly in
// [base·2ⁿ/2, base·2ⁿ), capped at MaxRetryBackoff.
func (c *Client) backoff(attempt int) {
	if c.cfg.RetryBackoff <= 0 {
		return
	}
	if attempt > 16 {
		attempt = 16
	}
	d := c.cfg.RetryBackoff << uint(attempt)
	if max := c.cfg.MaxRetryBackoff; max > 0 && d > max {
		d = max
	}
	if d > 1 {
		d = d/2 + rand.N(d/2) // jitter
	}
	time.Sleep(d)
}

// ErrNotFound reports a missing key.
var ErrNotFound = fmt.Errorf("kvstore: key not found")

// ErrBusy reports that the server shed the request under overload
// control (StatusBusy on the wire). The node is alive — callers should
// fail over to another replica, not open a circuit breaker against it.
var ErrBusy = proto.ErrBusy

// ErrCasConflict reports that a compare-and-swap found a live version
// different from the expectation. Match with errors.Is; errors.As a
// *CasConflictError to get the version the swap lost to.
var ErrCasConflict = proto.ErrConflict

// CasConflictError carries the details of a failed compare-and-swap
// precondition. It unwraps to ErrCasConflict.
type CasConflictError struct {
	// Cur is the live version the expectation lost to (the highest one
	// any consulted replica reported; 0 = the key is absent or
	// tombstoned).
	Cur uint64
	// Partial means the losing value still reached at least one replica
	// (below the write quorum). Anti-entropy may yet spread it, so the
	// caller must treat the swap's fate as ambiguous rather than
	// definitely-rejected.
	Partial bool
}

func (e *CasConflictError) Error() string {
	if e.Partial {
		return fmt.Sprintf("kvstore: cas conflict (live version %d, write partially applied)", e.Cur)
	}
	return fmt.Sprintf("kvstore: cas conflict (live version %d)", e.Cur)
}

// Unwrap makes errors.Is(err, ErrCasConflict) work.
func (e *CasConflictError) Unwrap() error { return ErrCasConflict }

// Get fetches key's value. It returns ErrNotFound for missing keys and
// ErrBusy when the server shed the request.
func (c *Client) Get(key string) ([]byte, error) {
	req := proto.AcquireRequest()
	req.Op, req.Key = proto.OpGet, key
	resp, err := c.Do(req)
	proto.ReleaseRequest(req)
	if err != nil {
		return nil, err
	}
	// The struct is recycled once the payload slice is extracted; the
	// slice itself is freshly allocated per response and stays valid.
	defer proto.ReleaseResponse(resp)
	switch resp.Status {
	case proto.StatusOK:
		return resp.Payload, nil
	case proto.StatusNotFound:
		return nil, ErrNotFound
	default:
		return nil, resp.Err()
	}
}

// GetV fetches key's value with its logical version. A live hit returns
// (value, ver, false, nil); a tombstone returns (nil, ver, true,
// ErrNotFound) — the version distinguishes "deleted at ver" from "never
// heard of it" (ver 0, tomb false). Like Get it recycles the request and
// response structs; the value aliases the response's freshly allocated
// payload, which nothing else holds.
func (c *Client) GetV(key string) (value []byte, ver uint64, tomb bool, err error) {
	req := proto.AcquireRequest()
	req.Op, req.Key = proto.OpGetV, key
	resp, err := c.Do(req)
	proto.ReleaseRequest(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer proto.ReleaseResponse(resp)
	switch resp.Status {
	case proto.StatusOK:
		ver, value, err = proto.DecodeGetVPayload(resp.Payload)
		return value, ver, false, err
	case proto.StatusNotFound:
		if len(resp.Payload) >= 8 {
			ver, _, err = proto.DecodeGetVPayload(resp.Payload)
			if err != nil {
				return nil, 0, false, err
			}
			return nil, ver, true, ErrNotFound
		}
		return nil, 0, false, ErrNotFound
	default:
		return nil, 0, false, resp.Err()
	}
}

// SetVersioned stores value under key with a logical version: the server
// applies it only over an absent entry or a strictly older version, so
// the call is idempotent and safe to replay (hinted handoff, read
// repair, anti-entropy all ride this path).
func (c *Client) SetVersioned(key string, value []byte, epoch uint32, ver uint64) error {
	_, err := c.write(&proto.Request{Op: proto.OpSet, Key: key, Value: value, Epoch: epoch, Ver: ver})
	return err
}

// DelVersioned deletes key by writing a versioned tombstone: replicas
// that missed the delete converge to it through repair instead of
// resurrecting the key. Deleting an absent key still records the
// tombstone (idempotent, and the replica holding the value may be down).
func (c *Client) DelVersioned(key string, epoch uint32, ver uint64) error {
	_, err := c.write(&proto.Request{Op: proto.OpDel, Key: key, Epoch: epoch, Ver: ver})
	return err
}

// Cas performs a versioned compare-and-swap against a frontend: value
// replaces the entry only if its current live version equals expect
// (0 = the key must be absent or tombstoned, i.e. CAS-create). On
// success it returns the new live version; on a precondition miss it
// returns a *CasConflictError (errors.Is ErrCasConflict) carrying the
// version to retry against. Read the current version with GetV.
func (c *Client) Cas(key string, value []byte, expect uint64) (uint64, error) {
	return c.CasVersioned(key, value, 0, expect, 0)
}

// CasVersioned is the full-form compare-and-swap: epoch stamps the
// stored entry, and newVer fixes the version the value is stored at
// (0 = the server assigns one). The frontend's quorum write path uses
// the explicit form so every replica stores the same version; a
// non-zero newVer also makes the call safe to retry, because a replica
// that already applied the swap recognizes the duplicate.
func (c *Client) CasVersioned(key string, value []byte, epoch uint32, expect, newVer uint64) (uint64, error) {
	resp, err := c.Do(&proto.Request{Op: proto.OpCas, Key: key, Value: value, Epoch: epoch, CasExpect: expect, Ver: newVer})
	if err != nil {
		return 0, err
	}
	switch resp.Status {
	case proto.StatusOK:
		if len(resp.Payload) < 8 {
			return 0, fmt.Errorf("kvstore: CAS response payload %d bytes: %w", len(resp.Payload), proto.ErrMalformed)
		}
		return binary.BigEndian.Uint64(resp.Payload), nil
	case proto.StatusConflict:
		cur, partial, derr := proto.DecodeCasConflictPayload(resp.Payload)
		if derr != nil {
			return 0, derr
		}
		return cur, &CasConflictError{Cur: cur, Partial: partial}
	default:
		return 0, resp.Err()
	}
}

// Invalidate asks a (tier) frontend to drop its cached copy of key.
// Plain frontends and backends treat it as a harmless cache no-op /
// unsupported op respectively; TierClient sends it to a key's other
// candidate after a write.
func (c *Client) Invalidate(key string) error {
	resp, err := c.Do(&proto.Request{Op: proto.OpInvalidate, Key: key})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.SetV(key, value)
	return err
}

// SetV stores value under key and returns the logical version the write
// was assigned. Frontends report the version they stamped the quorum
// write with; servers that predate versioned responses (or a direct
// backend, which assigns none for an unversioned Set) report 0. The
// version is what a caller needs to chain a Cas onto its own write
// without an intervening read.
func (c *Client) SetV(key string, value []byte) (uint64, error) {
	return c.write(&proto.Request{Op: proto.OpSet, Key: key, Value: value})
}

// CopyEpoch applies an epoch-guarded migration copy: the server stores
// the value only if the key is absent or held under a strictly older
// epoch, so a concurrent client write at the target epoch always wins.
// The copied entry keeps its origin's logical version ver (0 for
// unversioned data).
func (c *Client) CopyEpoch(key string, value []byte, epoch uint32, ver uint64) error {
	_, err := c.write(&proto.Request{Op: proto.OpSet, Key: key, Value: value, Epoch: epoch, Ver: ver, EpochGuard: true})
	return err
}

// Scan fetches one page of the server's store in key-ID order, resuming
// after cursor (0 = from the start). belowEpoch filters to entries
// stored under a strictly older epoch (0 = all). It returns the page,
// the next cursor (0 = scan complete), and ErrBusy when the server shed
// the request.
func (c *Client) Scan(cursor uint64, limit int, belowEpoch uint32) ([]proto.ScanEntry, uint64, error) {
	return c.ScanPage(cursor, limit, belowEpoch, ScanOptions{})
}

// ScanPage is Scan with per-page options: opts.Tombs includes tombstones
// (valueless entries with Tomb set) and opts.Digest elides live values to
// 64-bit content hashes — the anti-entropy repairer's comparison mode.
func (c *Client) ScanPage(cursor uint64, limit int, belowEpoch uint32, opts ScanOptions) ([]proto.ScanEntry, uint64, error) {
	if limit < 1 || limit > proto.MaxBatchKeys {
		return nil, 0, fmt.Errorf("kvstore: scan limit %d outside [1, %d]", limit, proto.MaxBatchKeys)
	}
	resp, err := c.Do(&proto.Request{
		Op:         proto.OpScan,
		ScanCursor: cursor,
		ScanLimit:  uint16(limit),
		Epoch:      belowEpoch,
		ScanTombs:  opts.Tombs,
		ScanDigest: opts.Digest,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := resp.Err(); err != nil {
		return nil, 0, err
	}
	return proto.DecodeScanPayload(resp.Payload)
}

// Del removes key. Deleting a missing key is not an error (idempotent).
func (c *Client) Del(key string) error {
	_, err := c.DelV(key)
	return err
}

// DelV removes key and returns the logical version of the tombstone the
// delete was recorded at (0 from servers that assign none). A reader
// that later observes a live version below it is seeing resurrected
// data — the checker's no-resurrection rule keys off exactly this.
func (c *Client) DelV(key string) (uint64, error) {
	return c.write(&proto.Request{Op: proto.OpDel, Key: key})
}

// write sends one Set- or Del-shaped request and returns the version
// the server reports (0 from servers that assign none). A delete of a
// missing key is success: deletes are idempotent.
func (c *Client) write(req *proto.Request) (uint64, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	if err := resp.Err(); err != nil {
		return 0, err
	}
	if resp.Status == proto.StatusOK && len(resp.Payload) >= 8 {
		return binary.BigEndian.Uint64(resp.Payload), nil
	}
	return 0, nil
}

// MGet fetches several keys in one round trip. The result slice is
// parallel to keys; missing keys have Found == false. Batches beyond
// proto.MaxBatchKeys are split transparently.
func (c *Client) MGet(keys []string) ([]proto.MGetResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]proto.MGetResult, 0, len(keys))
	for start := 0; start < len(keys); start += proto.MaxBatchKeys {
		end := start + proto.MaxBatchKeys
		if end > len(keys) {
			end = len(keys)
		}
		resp, err := c.Do(&proto.Request{Op: proto.OpMGet, Keys: keys[start:end]})
		if err != nil {
			return nil, err
		}
		if err := resp.Err(); err != nil {
			return nil, err
		}
		results, err := proto.DecodeMGetPayload(resp.Payload)
		if err != nil {
			return nil, err
		}
		if len(results) != end-start {
			return nil, fmt.Errorf("kvstore: MGet returned %d results for %d keys", len(results), end-start)
		}
		out = append(out, results...)
	}
	return out, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.Do(&proto.Request{Op: proto.OpPing})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Stats fetches the server's metric snapshot as a decoded JSON object.
// Numbers are decoded as json.Number so 64-bit counters survive intact
// (float64 silently loses precision above 2^53).
func (c *Client) Stats() (map[string]interface{}, error) {
	resp, err := c.Do(&proto.Request{Op: proto.OpStats})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(resp.Payload)))
	dec.UseNumber()
	var m map[string]interface{}
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("kvstore: decoding stats: %w", err)
	}
	return m, nil
}

// Members fetches the frontend's membership view (OpMembers). Only
// frontends answer it — backends return an error — so clients use it
// both to discover the live cluster shape and to tell a frontend from a
// backend.
func (c *Client) Members() (MembershipStatus, error) {
	resp, err := c.Do(&proto.Request{Op: proto.OpMembers})
	if err != nil {
		return MembershipStatus{}, err
	}
	if err := resp.Err(); err != nil {
		return MembershipStatus{}, err
	}
	var st MembershipStatus
	if err := json.Unmarshal(resp.Payload, &st); err != nil {
		return MembershipStatus{}, fmt.Errorf("kvstore: decoding membership: %w", err)
	}
	return st, nil
}

// StatCounter extracts a numeric counter from a Stats result, 0 if
// absent or negative. Values are parsed as exact uint64 where possible.
func StatCounter(stats map[string]interface{}, name string) uint64 {
	switch v := stats[name].(type) {
	case json.Number:
		if u, err := strconv.ParseUint(v.String(), 10, 64); err == nil {
			return u
		}
		if f, err := v.Float64(); err == nil && f > 0 {
			return uint64(f)
		}
	case float64:
		if v > 0 {
			return uint64(v)
		}
	case uint64:
		return v
	case int64:
		if v > 0 {
			return uint64(v)
		}
	case int:
		if v > 0 {
			return uint64(v)
		}
	}
	return 0
}

// Close closes all pooled connections. In-flight requests on checked-out
// connections finish; their conns are then discarded.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	pipe := c.pipe
	c.idle = nil
	c.pipe = nil
	c.closed = true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.conn.Close()
	}
	if pipe != nil {
		// Closing the conn fails the reader, which tears down every
		// in-flight call; waiting for both loops keeps Close a true
		// barrier (no goroutines survive it).
		pipe.conn.Close()
		pipe.wg.Wait()
	}
}
