// Command kvload is the load generator / attacker for a live kvstore
// deployment: it preloads a key space through the front end, then fires a
// query stream (uniform, zipf, adversarial, or a recorded trace) from
// concurrent workers and reports client-side throughput and latency plus
// per-backend load if backend addresses are given.
//
// Usage:
//
//	kvload -frontend 127.0.0.1:7000 -m 1000 -workload adversarial -x 17 -queries 100000
//	kvload -frontend 127.0.0.1:7000 -trace atk.bin -workers 8
//	kvload -frontend 127.0.0.1:7000 -m 1000 -workload zipf \
//	       -backends 127.0.0.1:7001,127.0.0.1:7002   # also report per-node loads
//	kvload -frontend 127.0.0.1:7000 -m 100 -workload uniform \
//	       -cas-fraction 0.3   # 30% CAS read-modify-writes; success/conflict breakdown
//	kvload -frontend 127.0.0.1:7000 -m 1000 \
//	       -pipeline 64        # pipelined transport; reports in-flight
//	                           # window queueing delay
//
// Against a distributed frontend tier, -frontends replaces -frontend and
// every worker drives a power-of-two-choices tier client over the named
// kvfront instances (IDs must match their -tier-id), reporting the
// per-frontend load spread next to the per-backend one:
//
//	kvload -frontends 0=127.0.0.1:7000,1=127.0.0.1:7010 -tier-seed 42 \
//	       -m 1000 -workload adversarial
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/proto"
	"securecache/internal/stats"
	"securecache/internal/trace"
	"securecache/internal/workload"
)

func main() {
	var (
		frontend  = flag.String("frontend", "127.0.0.1:7000", "frontend address")
		frontends = flag.String("frontends", "", "tier mode: comma-separated id=addr frontend list (replaces -frontend)")
		tierSeed  = flag.Uint64("tier-seed", 0, "tier mode: the tier's PUBLIC mapping seed")
		backends  = flag.String("backends", "", "optional comma-separated backend addresses for per-node load")
		m         = flag.Int("m", 1000, "key-space size")
		kind      = flag.String("workload", "adversarial", "workload: adversarial | uniform | zipf")
		x         = flag.Int("x", 0, "adversarial: queried keys (0 = m/10+1)")
		zipfS     = flag.Float64("zipf-s", 1.01, "zipf exponent")
		queries   = flag.Int("queries", 100000, "total queries to send")
		workers   = flag.Int("workers", 4, "concurrent workers")
		batch     = flag.Int("batch", 1, "keys per request (1 = single GET, >1 = MGET)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		tracePath = flag.String("trace", "", "replay this trace file instead of sampling")
		preload   = flag.Bool("preload", true, "SET every key before the run")
		timeout   = flag.Duration("timeout", kvstore.DefaultReadTimeout, "per-request response deadline (negative = none)")
		retries   = flag.Int("retries", kvstore.DefaultMaxRetries, "budgeted transport retries per request (negative = none)")
		poolSize  = flag.Int("pool-size", 0, "idle connections pooled per worker client (0 = default, negative = no pooling)")
		refreshAt = flag.Int("refresh-streak", 8, "consecutive BUSY/error responses before re-reading cluster membership from the frontend (0 = never)")
		casFrac   = flag.Float64("cas-fraction", 0, "fraction of timed requests issued as a CAS read-modify-write (GetV + Cas) instead of a GET; conflicts are reported apart from successes")
		pipeDepth = flag.Int("pipeline", 0, "pipelined transport: max in-flight frames per conn (0 = one request in flight per conn)")
	)
	flag.Parse()
	if *casFrac < 0 || *casFrac > 1 {
		fatal(fmt.Errorf("-cas-fraction %g out of range [0,1]", *casFrac))
	}

	clientCfg := kvstore.ClientConfig{ReadTimeout: *timeout, MaxRetries: *retries, MaxIdleConns: *poolSize, PipelineDepth: *pipeDepth}

	// Queueing-delay visibility: with a pipelined transport a request can
	// stall waiting for an in-flight window slot before a single byte is
	// written — that wait is inside the measured latency, so break it out.
	var winWaitNs, winWaitN, winWaitMax atomic.Int64
	if *pipeDepth > 0 {
		clientCfg.OnWindowWait = func(d time.Duration) {
			winWaitNs.Add(int64(d))
			winWaitN.Add(1)
			for {
				cur := winWaitMax.Load()
				if int64(d) <= cur || winWaitMax.CompareAndSwap(cur, int64(d)) {
					break
				}
			}
		}
	}

	tierMap, err := parseTierFrontends(*frontends)
	if err != nil {
		fatal(err)
	}
	statsAddr := *frontend
	newQuerier := func() (querier, func()) {
		c := kvstore.NewClientWithConfig(statsAddr, clientCfg)
		return c, c.Close
	}
	if len(tierMap) > 0 {
		ids := make([]int, 0, len(tierMap))
		for id := range tierMap {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		statsAddr = tierMap[ids[0]]
		newQuerier = func() (querier, func()) {
			tc, err := kvstore.NewTierClient(kvstore.TierClientConfig{
				Frontends: tierMap, Seed: *tierSeed, Client: clientCfg,
			})
			if err != nil {
				fatal(err)
			}
			return tc, func() { tc.Close() }
		}
	}

	keys, err := buildKeys(*tracePath, *kind, *m, *x, *zipfS, *queries, *seed)
	if err != nil {
		fatal(err)
	}

	if *preload {
		mem := startMemDelta()
		n, took, err := preloadKeys(newQuerier, keys)
		if err != nil {
			fatal(err)
		}
		allocs, bytes := mem.perOp(uint64(n))
		fmt.Printf("op SET (preload): %d ops in %v (%.0f ops/s, %d allocs/op, %d B/op client-side)\n",
			n, took.Round(time.Millisecond), float64(n)/took.Seconds(), allocs, bytes)
	}

	// The backend list is LIVE state now that the cluster supports
	// join/drain: keep it in an addrBook that re-reads membership from
	// the frontend when workers see sustained trouble, so the final
	// per-node report covers nodes that joined mid-run.
	book := newAddrBook(statsAddr, clientCfg, splitNonEmpty(*backends))
	before := backendCounts(book.snapshot())
	frontBefore := tierFrontendCounts(tierMap, clientCfg)

	quantiles := []float64{0.50, 0.95, 0.99}
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		lat         stats.Summary
		casLat      stats.Summary
		merged      = newQuantileSet(quantiles)
		errCount    int
		shed        int
		casOK       int
		casConflict int
		perWork     = (len(keys) + *workers - 1) / *workers
	)
	mem := startMemDelta()
	start := time.Now()
	for w := 0; w < *workers; w++ {
		lo := w * perWork
		hi := lo + perWork
		if hi > len(keys) {
			hi = len(keys)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker int, slice []int) {
			defer wg.Done()
			client, closeClient := newQuerier()
			defer closeClient()
			var local, localCas stats.Summary
			localQ := newQuantileSet(quantiles)
			localErrs, localShed := 0, 0
			localCasOK, localCasConflict := 0, 0
			rng := rand.New(rand.NewPCG(*seed, uint64(worker)))
			streak := 0
			step := *batch
			if step < 1 {
				step = 1
			}
			for lo := 0; lo < len(slice); lo += step {
				hi := lo + step
				if hi > len(slice) {
					hi = len(slice)
				}
				isCas := *casFrac > 0 && rng.Float64() < *casFrac
				t0 := time.Now()
				var err error
				switch {
				case isCas:
					// Read-modify-write: learn the live version, then swap
					// against it. A conflict means another writer won the
					// race — contention evidence, not a failure.
					key := workload.KeyName(slice[lo])
					_, ver, _, gerr := client.GetV(key)
					if gerr != nil && gerr != kvstore.ErrNotFound {
						err = gerr
						break
					}
					if gerr == kvstore.ErrNotFound {
						ver = 0 // absent or tombstoned: CAS-create
					}
					if _, cerr := client.Cas(key, casValue(worker, lo), ver); cerr != nil {
						if errors.Is(cerr, kvstore.ErrCasConflict) {
							localCasConflict++
						} else {
							err = cerr
						}
					} else {
						localCasOK++
					}
				case step == 1:
					_, err = client.Get(workload.KeyName(slice[lo]))
				default:
					names := make([]string, hi-lo)
					for j, k := range slice[lo:hi] {
						names[j] = workload.KeyName(k)
					}
					_, err = client.MGet(names)
				}
				us := float64(time.Since(t0).Microseconds())
				if err != nil && err != kvstore.ErrNotFound {
					// Shed requests are the overload machinery working as
					// designed; report them apart from hard errors.
					if errors.Is(err, kvstore.ErrBusy) {
						localShed++
					} else {
						localErrs++
					}
					// A sustained streak of BUSY or refused responses can
					// mean the cluster is mid-view-change (nodes joining or
					// draining): re-read membership so the report tracks the
					// cluster the run actually hit.
					if streak++; *refreshAt > 0 && streak >= *refreshAt {
						book.maybeRefresh()
						streak = 0
					}
					continue
				}
				streak = 0
				// Record one latency sample per request (batched or not).
				if isCas {
					localCas.Add(us)
				} else {
					local.Add(us)
				}
				localQ.add(us)
			}
			mu.Lock()
			lat.Merge(local)
			casLat.Merge(localCas)
			merged.mergeWorker(localQ)
			errCount += localErrs
			shed += localShed
			casOK += localCasOK
			casConflict += localCasConflict
			mu.Unlock()
		}(w, keys[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)

	queriesSent := float64(lat.N()) * float64(*batch)
	if *batch <= 1 {
		queriesSent = float64(lat.N())
	}
	queriesSent += float64(casLat.N())
	requests := lat.N() + casLat.N()
	// Hard failures (transport errors, dead replicas) and busy sheds
	// (the overload machinery working as designed) are different outcomes
	// and are reported apart: a chaos run wants to see sheds climb while
	// hard failures stay at zero.
	fmt.Printf("sent ~%.0f queries in %d requests over %v (%.0f qps, %d workers, batch %d, %d hard failures, %d busy-shed)\n",
		queriesSent, requests, elapsed.Round(time.Millisecond),
		queriesSent/elapsed.Seconds(), *workers, *batch, errCount, shed)
	fmt.Printf("per-request latency: mean %.0fµs  p50≈%.0fµs  p95≈%.0fµs  p99≈%.0fµs  max %.0fµs\n",
		lat.Mean(), merged.value(0.50), merged.value(0.95), merged.value(0.99), lat.Max())
	if *pipeDepth > 0 {
		// Where queueing delay lives: time spent waiting for an in-flight
		// window slot is already inside the latencies above; a large share
		// here means the pipe (depth) is the bottleneck, not the server.
		if n := winWaitN.Load(); n > 0 {
			total := time.Duration(winWaitNs.Load())
			fmt.Printf("in-flight window (depth %d): %d stalls, %v total wait (mean %.0fµs, max %.0fµs)\n",
				*pipeDepth, n, total.Round(time.Millisecond),
				float64(total.Microseconds())/float64(n),
				float64(time.Duration(winWaitMax.Load()).Microseconds()))
		} else {
			fmt.Printf("in-flight window (depth %d): never filled — no queueing delay at the client\n", *pipeDepth)
		}
	}
	if *casFrac > 0 {
		// Success vs conflict is the contention signal: with many workers
		// hammering a small key space, conflicts should climb while hard
		// failures stay at zero — every conflict is a correctly refused
		// stale swap, not a lost write.
		total := casOK + casConflict
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(casConflict) / float64(total)
		}
		fmt.Printf("op CAS (GetV+Cas): %d attempts, %d succeeded, %d conflicts (%.1f%% conflict rate), mean %.0fµs max %.0fµs\n",
			total, casOK, casConflict, rate, casLat.Mean(), casLat.Max())
	}

	// Per-op-type breakdown: the timed loop sends exactly one op type
	// (GET at batch 1, MGET above), so its MemStats delta is that op's
	// client-side allocation cost. The delta is process-wide — workload
	// generation and bookkeeping are counted too — which makes it an
	// upper bound, comparable across runs of the same shape.
	if n := uint64(lat.N() + casLat.N()); n > 0 {
		op := "GET"
		if *batch > 1 {
			op = "MGET"
		}
		if *casFrac > 0 {
			op += "+CAS mix"
		}
		allocs, bytes := mem.perOp(n)
		fmt.Printf("op %s: %d ops in %v (%.0f ops/s, %d allocs/op, %d B/op client-side)\n",
			op, n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), allocs, bytes)
	}

	// The frontend's STATS snapshot carries the resilience counters; show
	// them whenever any failover machinery fired during the run.
	if fc := kvstore.NewClientWithConfig(statsAddr, clientCfg); fc != nil {
		if st, err := fc.Stats(); err == nil {
			r := kvstore.StatCounter(st, "retries_total")
			b := kvstore.StatCounter(st, "breaker_open_total")
			e := kvstore.StatCounter(st, "backend_errors_total")
			if r+b+e > 0 {
				fmt.Printf("frontend resilience: %d retries, %d breaker opens, %d backend errors\n", r, b, e)
			}
			fs := kvstore.StatCounter(st, "shed_total")
			bb := kvstore.StatCounter(st, "backend_busy_total")
			rs := kvstore.StatCounter(st, "retry_budget_exhausted_total")
			cr := kvstore.StatCounter(st, "busy_conns_rejected_total")
			if fs+bb+rs+cr > 0 {
				fmt.Printf("frontend overload: %d requests shed, %d conns rejected, %d backend busies, %d retries suppressed\n",
					fs, cr, bb, rs)
			}
			hq := kvstore.StatCounter(st, "hints_queued_total")
			hr := kvstore.StatCounter(st, "hints_replayed_total")
			rr := kvstore.StatCounter(st, "read_repair_total")
			ae := kvstore.StatCounter(st, "repair_keys_repaired_total")
			if hq+hr+rr+ae > 0 {
				fmt.Printf("frontend durability: %d hints queued, %d replayed, %d read repairs, %d anti-entropy repairs\n",
					hq, hr, rr, ae)
			}
			ct := kvstore.StatCounter(st, "cas_total")
			cc := kvstore.StatCounter(st, "cas_conflicts_total")
			if ct > 0 {
				fmt.Printf("frontend cas: %d swaps, %d conflicts\n", ct, cc)
			}
		}
		fc.Close()
	}

	if len(tierMap) > 0 {
		after := tierFrontendCounts(tierMap, clientCfg)
		ids := make([]int, 0, len(tierMap))
		for id := range tierMap {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Println("per-frontend request deltas (two-choice spread):")
		printDeltas("frontend", requestDeltas(ids, func(i int) string {
			return fmt.Sprintf("frontend %2d (%s)", ids[i], tierMap[ids[i]])
		}, frontBefore, after))
	}

	if addrs := book.snapshot(); len(addrs) > 0 {
		if book.refreshed() {
			fmt.Printf("membership refreshed during run: now %d backends\n", len(addrs))
		}
		after := backendCounts(addrs)
		fmt.Println("per-backend request deltas:")
		if printDeltas("backend", requestDeltas(addrs, func(i int) string {
			return fmt.Sprintf("node %2d (%s)", i, addrs[i])
		}, before, after)) == 0 {
			fmt.Println("backends saw no traffic (cache absorbed the attack)")
		}
	}
}

// nodeDelta is one node's request count over the run. ok is false, and
// delta 0, when the node has no usable pair of samples: a stats fetch
// failed before or after the run, the node joined mid-run, or its
// counter went backwards (a restart).
type nodeDelta struct {
	label string
	delta uint64
	ok    bool
}

func requestDeltas[K comparable](nodes []K, label func(i int) string, before, after map[K]uint64) []nodeDelta {
	rows := make([]nodeDelta, len(nodes))
	for i, n := range nodes {
		b, okBefore := before[n]
		a, okAfter := after[n]
		rows[i] = nodeDelta{label: label(i), ok: okBefore && okAfter && a >= b}
		if rows[i].ok {
			rows[i].delta = a - b
		}
	}
	return rows
}

// printDeltas prints one line per node and the normalized max load over
// the nodes with a delta, and returns their total.
func printDeltas(kind string, rows []nodeDelta) uint64 {
	var total, maxDelta uint64
	counted := 0
	for _, r := range rows {
		if !r.ok {
			fmt.Printf("  %s: skipped, no stats sample from both before and after the run\n", r.label)
			continue
		}
		counted++
		total += r.delta
		maxDelta = max(maxDelta, r.delta)
		fmt.Printf("  %s: %d\n", r.label, r.delta)
	}
	if total > 0 {
		even := float64(total) / float64(counted)
		fmt.Printf("normalized max %s load: %.3f (hottest %d / even share %.1f)\n",
			kind, float64(maxDelta)/even, maxDelta, even)
	}
	return total
}

// quantileSet tracks several latency quantiles with one P² estimator
// each (constant memory, no sample buffer). Workers keep a local set;
// the run merges them by feeding each worker's estimate into the global
// estimator — the "quantile of worker quantiles" approximation, same as
// the original single-p99 report.
type quantileSet struct {
	qs  []float64
	est []*stats.P2Quantile
}

func newQuantileSet(qs []float64) *quantileSet {
	s := &quantileSet{qs: qs, est: make([]*stats.P2Quantile, len(qs))}
	for i, q := range qs {
		s.est[i] = stats.NewP2Quantile(q)
	}
	return s
}

func (s *quantileSet) add(v float64) {
	for _, e := range s.est {
		e.Add(v)
	}
}

func (s *quantileSet) mergeWorker(w *quantileSet) {
	for i, e := range w.est {
		if e.N() > 0 {
			s.est[i].Add(e.Value())
		}
	}
}

func (s *quantileSet) value(q float64) float64 {
	for i, have := range s.qs {
		if have == q {
			return s.est[i].Value()
		}
	}
	return 0
}

func buildKeys(tracePath, kind string, m, x int, zipfS float64, queries int, seed uint64) ([]int, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return nil, err
		}
		return tr.Keys, nil
	}
	var dist workload.Distribution
	switch kind {
	case "adversarial":
		if x == 0 {
			x = m/10 + 1
		}
		dist = workload.NewAdversarial(m, x, 0)
	case "uniform":
		dist = workload.NewUniform(m, m)
	case "zipf":
		dist = workload.NewZipf(m, zipfS)
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
	return workload.NewGenerator(dist, seed).Batch(make([]int, 0, queries), queries), nil
}

func preloadKeys(newQuerier func() (querier, func()), keys []int) (int, time.Duration, error) {
	client, closeClient := newQuerier()
	defer closeClient()
	seen := make(map[int]bool)
	start := time.Now()
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		// Warm-up must not outpace an admission-limited cluster: back off
		// and re-send when the store sheds the SET instead of aborting.
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			if err = client.Set(workload.KeyName(k), []byte("payload")); !errors.Is(err, kvstore.ErrBusy) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return len(seen), time.Since(start), nil
}

// memDelta measures the process-wide allocation cost of a phase via
// runtime.MemStats: Mallocs and TotalAlloc are monotonic, so two reads
// bracket the phase without caring what the GC did in between.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) perOp(ops uint64) (allocs, bytes uint64) {
	if ops == 0 {
		return 0, 0
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return (after.Mallocs - m.before.Mallocs) / ops, (after.TotalAlloc - m.before.TotalAlloc) / ops
}

func backendCounts(addrs []string) map[string]uint64 {
	counts := make(map[string]uint64, len(addrs))
	for _, addr := range addrs {
		c := kvstore.NewClient(addr)
		if stats, err := c.Stats(); err == nil {
			counts[addr] = kvstore.StatCounter(stats, "requests_total")
		}
		c.Close()
	}
	return counts
}

// addrBook holds the backend address list the report is built over. It
// starts from the -backends flag and can re-read the live list from the
// frontend's membership surface (OpMembers bypasses the admission gate,
// so the refresh works even while the frontend is shedding the data
// plane) — a load run that spans a join/drain then reports the cluster
// it actually hit instead of the one it was launched against.
type addrBook struct {
	frontend string
	cfg      kvstore.ClientConfig

	mu      sync.Mutex
	addrs   []string
	last    time.Time
	changed bool
}

func newAddrBook(frontend string, cfg kvstore.ClientConfig, initial []string) *addrBook {
	return &addrBook{frontend: frontend, cfg: cfg, addrs: initial}
}

func (b *addrBook) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.addrs...)
}

func (b *addrBook) refreshed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.changed
}

// maybeRefresh re-reads membership from the frontend, at most once per
// second across all workers.
func (b *addrBook) maybeRefresh() {
	b.mu.Lock()
	if time.Since(b.last) < time.Second {
		b.mu.Unlock()
		return
	}
	b.last = time.Now()
	b.mu.Unlock()

	c := kvstore.NewClientWithConfig(b.frontend, b.cfg)
	ms, err := c.Members()
	c.Close()
	if err != nil || len(ms.MemberAddrs) == 0 {
		return
	}
	b.mu.Lock()
	if !equalStrings(b.addrs, ms.MemberAddrs) {
		b.addrs = append([]string(nil), ms.MemberAddrs...)
		b.changed = true
	}
	b.mu.Unlock()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// querier is the request surface the workers drive — satisfied by both
// the single-frontend Client and the two-choice TierClient.
type querier interface {
	Get(key string) ([]byte, error)
	GetV(key string) (value []byte, ver uint64, tomb bool, err error)
	MGet(keys []string) ([]proto.MGetResult, error)
	Set(key string, value []byte) error
	Cas(key string, value []byte, expect uint64) (uint64, error)
}

// casValue makes each swap's payload distinct so a CAS-heavy run
// actually churns the stored bytes instead of rewriting one constant.
func casValue(worker, i int) []byte {
	return []byte(fmt.Sprintf("cas-w%d-%d", worker, i))
}

// parseTierFrontends parses the -frontends "id=addr,id=addr" form.
func parseTierFrontends(s string) (map[int]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]string)
	for _, part := range splitNonEmpty(s) {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-frontends entry %q: want id=addr", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("-frontends entry %q: %v", part, err)
		}
		if _, dup := out[n]; dup {
			return nil, fmt.Errorf("-frontends: duplicate id %d", n)
		}
		out[n] = strings.TrimSpace(addr)
	}
	return out, nil
}

// tierFrontendCounts snapshots requests_total on every tier frontend.
func tierFrontendCounts(tierMap map[int]string, cfg kvstore.ClientConfig) map[int]uint64 {
	counts := make(map[int]uint64, len(tierMap))
	for id, addr := range tierMap {
		c := kvstore.NewClientWithConfig(addr, cfg)
		if stats, err := c.Stats(); err == nil {
			counts[id] = kvstore.StatCounter(stats, "requests_total")
		}
		c.Close()
	}
	return counts
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvload:", err)
	os.Exit(2)
}
