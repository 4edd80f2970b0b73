package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"securecache/internal/disttier"
	"securecache/internal/proto"
)

// TierClient is the client half of the distributed frontend tier: it
// resolves the frontend set, hashes every key to its two candidate
// frontends under the (public) tier mapping, and routes each request to
// the less-loaded candidate — power-of-two-choices over live load
// hints. The hints ride on every response frame (no extra round trips)
// and are combined with this client's own outstanding-request counts in
// a disttier.LoadTable, so even between hint refreshes a client cannot
// herd onto one frontend.
//
// Failure handling is what makes the tier crash-tolerant: a transport
// error on one candidate penalizes it in the load table (every
// subsequent pick avoids it until a frame is heard from it again) and
// the request fails over to the other candidate within the same call.
// Because every key has two candidates and each frontend caches its
// full candidate set, a frontend crash degrades capacity but never
// availability — and the surviving candidate already holds the hot keys
// it shares with the dead one.
type TierClient struct {
	seed  uint64
	ccfg  ClientConfig
	loads *disttier.LoadTable
	view  atomic.Pointer[tierView]

	mu     sync.Mutex // serializes view swaps and Close
	closed bool
}

// tierView is one immutable snapshot of the frontend set; SetFrontends
// swaps the whole thing.
type tierView struct {
	m       *disttier.Map
	clients map[int]*Client
	addrs   map[int]string
}

// TierClientConfig configures a TierClient.
type TierClientConfig struct {
	// Frontends maps tier member IDs to their data-plane addresses. The
	// IDs and Seed must match the frontends' own TierConfig — the client
	// and the tier compute the same candidate mapping independently.
	Frontends map[int]string
	// Seed is the public tier mapping seed.
	Seed uint64
	// Client is the per-frontend transport config (OnLoadHint is
	// reserved: the TierClient installs its own hook feeding the load
	// table).
	Client ClientConfig
}

// NewTierClient validates cfg and connects the load-hint plumbing. No
// I/O happens until the first request.
func NewTierClient(cfg TierClientConfig) (*TierClient, error) {
	if len(cfg.Frontends) == 0 {
		return nil, errors.New("kvstore: tier client needs at least one frontend")
	}
	tc := &TierClient{seed: cfg.Seed, ccfg: cfg.Client, loads: disttier.NewLoadTable()}
	view, err := tc.newView(cfg.Frontends)
	if err != nil {
		return nil, err
	}
	tc.view.Store(view)
	return tc, nil
}

// newView builds an immutable frontend-set snapshot, one Client per
// frontend with its load-hint hook bound to that frontend's ID.
func (tc *TierClient) newView(frontends map[int]string) (*tierView, error) {
	ids := make([]int, 0, len(frontends))
	for id := range frontends {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	m, err := disttier.NewMap(ids, tc.seed)
	if err != nil {
		return nil, err
	}
	v := &tierView{
		m:       m,
		clients: make(map[int]*Client, len(ids)),
		addrs:   make(map[int]string, len(ids)),
	}
	for _, id := range ids {
		id := id
		ccfg := tc.ccfg
		userHook := ccfg.OnLoadHint
		ccfg.OnLoadHint = func(load uint32) {
			tc.loads.Observe(id, load)
			if userHook != nil {
				userHook(load)
			}
		}
		v.clients[id] = NewClientWithConfig(frontends[id], ccfg)
		v.addrs[id] = frontends[id]
	}
	return v, nil
}

// SetFrontends replaces the frontend set (tier join/leave): clients for
// departed frontends are closed, survivors are rebuilt (cheap — the
// connection pools refill lazily). In-flight requests on the old view
// finish against their old clients.
func (tc *TierClient) SetFrontends(frontends map[int]string) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.closed {
		return errors.New("kvstore: tier client closed")
	}
	view, err := tc.newView(frontends)
	if err != nil {
		return err
	}
	old := tc.view.Swap(view)
	for _, c := range old.clients {
		c.Close()
	}
	return nil
}

// Frontends returns the current tier member IDs, ascending.
func (tc *TierClient) Frontends() []int { return tc.view.Load().m.IDs() }

// Candidates returns key's two candidate frontend IDs under the current
// view (equal for a tier of one).
func (tc *TierClient) Candidates(key string) (int, int) {
	return tc.view.Load().m.Candidates(KeyID(key))
}

// Loads exposes the live load table (experiments and tests inspect the
// effective loads the picks are based on).
func (tc *TierClient) Loads() *disttier.LoadTable { return tc.loads }

// Close releases every frontend connection.
func (tc *TierClient) Close() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.closed {
		return nil
	}
	tc.closed = true
	for _, c := range tc.view.Load().clients {
		c.Close()
	}
	return nil
}

// pick resolves key's candidates and orders them two-choice: the
// less-loaded candidate first, the other as the failover.
func (tc *TierClient) pick(v *tierView, key string) (first, second int) {
	a, b := v.m.Candidates(KeyID(key))
	first = tc.loads.Pick(a, b)
	second = a
	if first == a {
		second = b
	}
	return first, second
}

// failoverWorthy reports whether an error on one candidate should be
// retried on the other: transport failures (frontend dead or
// unreachable) and sheds (frontend alive but saturated — exactly the
// case two-choice exists for). ErrNotFound and a CAS conflict are real
// answers, not failures.
func failoverWorthy(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCasConflict)
}

// penalizeWorthy reports whether the error is evidence the frontend is
// GONE rather than busy. A shed (ErrBusy) response is proof of life —
// its frame carried a load hint that already updated the table — so
// only transport-level failures penalize. A CAS conflict is a healthy
// frontend answering a question correctly, never a health signal.
func penalizeWorthy(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound) &&
		!errors.Is(err, ErrBusy) && !errors.Is(err, ErrCasConflict)
}

// do runs one request against frontend id, tracking it in the load
// table so this client's own outstanding requests count toward the next
// pick immediately.
func (tc *TierClient) do(v *tierView, id int, fn func(*Client) error) error {
	c := v.clients[id]
	if c == nil {
		return fmt.Errorf("kvstore: no client for tier frontend %d", id)
	}
	tc.loads.Acquire(id)
	defer tc.loads.Release(id)
	err := fn(c)
	if penalizeWorthy(err) {
		tc.loads.Penalize(id)
	}
	return err
}

// twoChoice runs fn against the key's less-loaded candidate, failing
// over to the other candidate on transport errors and sheds.
func (tc *TierClient) twoChoice(key string, fn func(*Client) error) error {
	v := tc.view.Load()
	first, second := tc.pick(v, key)
	err := tc.do(v, first, fn)
	if failoverWorthy(err) && second != first {
		err = tc.do(v, second, fn)
	}
	return err
}

// Get fetches key via its less-loaded candidate frontend.
func (tc *TierClient) Get(key string) ([]byte, error) {
	var val []byte
	err := tc.twoChoice(key, func(c *Client) error {
		v, err := c.Get(key)
		val = v
		return err
	})
	return val, err
}

// Set writes key through one candidate frontend, then invalidates the
// OTHER candidate's cache (write-then-invalidate): the write lands on
// the backends via the first frontend, and the stale copy the second
// may hold is dropped before Set returns, bounding the staleness window
// to this one round trip. The invalidation is best-effort — if the
// other candidate is unreachable it has also stopped serving its cache,
// and its entries age out by eviction when it returns.
func (tc *TierClient) Set(key string, value []byte) error {
	return tc.writeThrough(key, func(c *Client) error { return c.Set(key, value) })
}

// Del deletes key through one candidate and invalidates the other,
// with the same ordering contract as Set.
func (tc *TierClient) Del(key string) error {
	return tc.writeThrough(key, func(c *Client) error { return c.Del(key) })
}

func (tc *TierClient) writeThrough(key string, fn func(*Client) error) error {
	_, err := tc.writeThroughV(key, failoverWorthy, func(c *Client) (uint64, error) { return 0, fn(c) })
	return err
}

// writeThroughV sends one write through key's first candidate, retries
// it on the second when retry(err) holds, and threads the write's
// logical version back. Once the outcome is definite — success, or a CAS
// conflict, which is news about the key's current state too — the
// candidate it did not write through is invalidated.
func (tc *TierClient) writeThroughV(key string, retry func(error) bool, fn func(*Client) (uint64, error)) (uint64, error) {
	v := tc.view.Load()
	first, second := tc.pick(v, key)
	wrote := first
	var ver uint64
	call := func(c *Client) error {
		var err error
		ver, err = fn(c)
		return err
	}
	err := tc.do(v, first, call)
	if retry(err) && second != first {
		wrote = second
		err = tc.do(v, second, call)
	}
	if err != nil && !errors.Is(err, ErrCasConflict) {
		return 0, err
	}
	if other := first + second - wrote; other != wrote {
		if c := v.clients[other]; c != nil {
			c.Invalidate(key) // best-effort; see Set
		}
	}
	return ver, err // a conflict carries Cur, threaded through Client.Cas
}

// GetV fetches key with its logical version via the less-loaded
// candidate, the versioned read CAS callers chain their expectation
// from. A tombstone reports (nil, tombVer, true, ErrNotFound) exactly
// as Frontend.GetV does.
func (tc *TierClient) GetV(key string) (value []byte, ver uint64, tomb bool, err error) {
	err = tc.twoChoice(key, func(c *Client) error {
		var e error
		value, ver, tomb, e = c.GetV(key)
		return e
	})
	return value, ver, tomb, err
}

// SetV is Set returning the version the write committed at.
func (tc *TierClient) SetV(key string, value []byte) (uint64, error) {
	return tc.writeThroughV(key, failoverWorthy, func(c *Client) (uint64, error) { return c.SetV(key, value) })
}

// DelV is Del returning the tombstone's version.
func (tc *TierClient) DelV(key string) (uint64, error) {
	return tc.writeThroughV(key, failoverWorthy, func(c *Client) (uint64, error) { return c.DelV(key) })
}

// Cas performs a replicated compare-and-swap through one candidate
// frontend, invalidating the other candidate on any definite outcome.
//
// The failover rule is deliberately narrower than writeThrough's: a
// shed (ErrBusy) is proof the frontend never processed the swap, so the
// other candidate may safely retry it. Any other failure is AMBIGUOUS —
// the first frontend may have committed the swap before the connection
// died, and replaying it through the second would stamp a second
// version and could apply twice (each application a distinct
// linearization point, which is exactly what CAS must never do). Those
// errors surface to the caller, who owns the read-validate-retry loop.
func (tc *TierClient) Cas(key string, value []byte, expect uint64) (uint64, error) {
	return tc.writeThroughV(key, func(err error) bool { return errors.Is(err, ErrBusy) },
		func(c *Client) (uint64, error) { return c.Cas(key, value, expect) })
}

// MGet fetches many keys, grouping them by picked frontend so each
// frontend sees one batched request; results come back aligned with
// keys, like Client.MGet. Keys whose batch fails are retried
// individually through the normal two-choice path (which penalizes and
// fails over), so one dead frontend degrades a batch, not the call.
func (tc *TierClient) MGet(keys []string) ([]proto.MGetResult, error) {
	v := tc.view.Load()
	groups := make(map[int][]int) // frontend ID -> indices into keys
	for i, key := range keys {
		first, _ := tc.pick(v, key)
		groups[first] = append(groups[first], i)
	}
	out := make([]proto.MGetResult, len(keys))
	var retry []int
	for id, idxs := range groups {
		group := make([]string, len(idxs))
		for j, i := range idxs {
			group[j] = keys[i]
		}
		var res []proto.MGetResult
		err := tc.do(v, id, func(c *Client) error {
			r, err := c.MGet(group)
			res = r
			return err
		})
		if err != nil || len(res) != len(idxs) {
			retry = append(retry, idxs...)
			continue
		}
		for j, i := range idxs {
			out[i] = res[j]
		}
	}
	for _, i := range retry {
		val, err := tc.Get(keys[i])
		switch {
		case err == nil:
			out[i] = proto.MGetResult{Found: true, Value: val}
		case errors.Is(err, ErrNotFound):
			// left as the zero (not-found) result, matching Client.MGet
		default:
			return nil, err
		}
	}
	return out, nil
}
