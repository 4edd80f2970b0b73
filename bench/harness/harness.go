// Package harness runs one workload end to end: it boots the cluster as
// separate processes, preloads it, drives the timed phases with the
// load generator, measures the processes from outside, checks every
// output, and turns all of it into named metrics.
package harness

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"securecache/bench/cluster"
	"securecache/bench/ladder"
	"securecache/bench/loadgen"
	"securecache/bench/report"
	"securecache/internal/core"
	"securecache/internal/kvstore"
	"securecache/internal/partition"
	"securecache/internal/xrand"
)

// The cluster every workload runs on.
const (
	Nodes       = 3
	Replication = 2
	// PaperK is the constant k the paper fixes for its figures. The fitted
	// k' makes k negative at n = 3, d = 2 (c* would be 0), so the cache of
	// adv_miss is provisioned with the paper's own k: c* = ceil(3*1.2+1) = 5.
	PaperK = 1.2
	// AlertGain is secguard's default alert level for the normalized max
	// backend load; adv_miss fails above it.
	AlertGain = 1.2
	// syncInterval is kvnode's default WAL fsync cadence.
	syncInterval = 500 * time.Millisecond
	// setups is how many times an untraced run sets the cluster up; the
	// median is setup_s.
	setups = 3
	// maxLagP99us is the generator lateness above which a run's latencies
	// are not to be trusted.
	maxLagP99us = 1000
)

// pathPartition derives the secret partition seed from the run seed; the
// load generator derives its streams under other paths.
const pathPartition = 0x5ec2e7

// Procs returns the GOMAXPROCS of each process of a run on this host.
func Procs() map[string]int {
	two := min(2, runtime.NumCPU())
	return map[string]int{"scpbench": two, "kvfront": two, "kvnode": 1}
}

// CheckProcs refuses a configuration that asks for more processors than
// the host has: such a row measures scheduler oversubscription, not the
// system (ROADMAP open item 1a).
func CheckProcs(procs map[string]int, numCPU int) error {
	for name, n := range procs {
		if n > numCPU {
			return fmt.Errorf("harness: %s wants GOMAXPROCS=%d on a %d-CPU host", name, n, numCPU)
		}
	}
	return nil
}

// Build compiles kvfront and kvnode from the repository at root into
// binDir and returns how long that took.
func Build(root, binDir string, log io.Writer) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", abs+string(filepath.Separator), "./cmd/kvfront", "./cmd/kvnode")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("harness: build kvfront and kvnode: %w", err)
	}
	return time.Since(start), nil
}

// Options selects one run.
type Options struct {
	BinDir  string // kvfront and kvnode
	OutDir  string // bench/out
	Spec    loadgen.Spec
	Seed    uint64
	Seconds int
	Trace   bool
	BuildS  float64   // reported as loadgen.build_s
	Log     io.Writer // progress, human readable
}

// run carries the state of one run.
type run struct {
	opts   Options
	out    report.Run
	values map[string]float64 // out.Values
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	r.out.Checks = append(r.out.Checks, report.Check{Name: name, OK: ok, Detail: detail})
	if !ok {
		fmt.Fprintf(r.opts.Log, "CHECK FAILED %s: %s\n", name, detail)
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.opts.Log, "[%s] "+format+"\n", append([]any{r.opts.Spec.Name}, args...)...)
}

// phase lengths for a run of the given number of seconds: the open loop
// gets five eighths (10 s of the default 16), the closed loop the rest;
// the serial workload is closed loop throughout.
func phases(spec loadgen.Spec, seconds int) (open, closed, warm time.Duration) {
	total := time.Duration(seconds) * time.Second
	warm = total / 10
	if spec.Serial {
		return 0, total, warm
	}
	open = total * 5 / 8
	return open, total - open, warm
}

func (r *run) clusterConfig() cluster.Config {
	procs := Procs()
	return cluster.Config{
		BinDir: r.opts.BinDir, OutDir: r.opts.OutDir, Name: r.opts.Spec.Name,
		Nodes: Nodes, Replication: Replication,
		PartitionSeed: xrand.Derive(r.opts.Seed, pathPartition),
		CacheSize:     r.opts.Spec.CacheSize, Items: loadgen.Keys, KOverride: PaperK,
		WAL:        r.opts.Spec.WAL,
		FrontProcs: procs["kvfront"], NodeProcs: procs["kvnode"],
		BackendConns: loadgen.Conns * loadgen.PipelineDepth,
	}
}

// clients returns the generator's connections to addr. depth 0 is the
// serial caller: one request in flight per connection.
func clients(addr string, depth int, hooks *clientHooks) []*kvstore.Client {
	cs := make([]*kvstore.Client, loadgen.Conns)
	for i := range cs {
		cfg := kvstore.ClientConfig{PipelineDepth: depth, MaxIdleConns: 1}
		if hooks != nil {
			cfg.OnWindowWait, cfg.OnRetry = hooks.windowWait, hooks.retry
		}
		cs[i] = kvstore.NewClientWithConfig(addr, cfg)
	}
	return cs
}

func closeAll(cs []*kvstore.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// setUp boots a fresh cluster and preloads every key through the
// frontend. The time from the first spawn to the last preload reply is
// the run's set-up time.
func (r *run) setUp() (*cluster.Cluster, *loadgen.KeyState, time.Duration, error) {
	start := time.Now()
	cl, err := cluster.Start(r.clusterConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	state := loadgen.NewKeyState(loadgen.Keys)
	cs := clients(cl.FrontAddr(), loadgen.PipelineDepth, nil)
	defer closeAll(cs)
	tgt := &loadgen.Target{Clients: cs, ValueBytes: r.opts.Spec.ValueBytes, State: state}
	if err := tgt.Preload(); err != nil {
		cl.Stop()
		return nil, nil, 0, err
	}
	return cl, state, time.Since(start), nil
}

// Run executes one run and returns what it measured. An error means the
// run could not be carried out; a run that was carried out but failed a
// check is returned with Correct false.
func Run(opts Options) (*report.Run, error) {
	if err := CheckProcs(Procs(), runtime.NumCPU()); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(Procs()["scpbench"])
	r := &run{opts: opts, values: map[string]float64{}}
	r.out = report.Run{Workload: opts.Spec.Name, Trace: opts.Trace, Seconds: opts.Seconds,
		Values: r.values, Counts: map[string]int{}}
	if err := r.measure(); err != nil {
		return nil, err
	}
	r.out.Correct = true
	for _, c := range r.out.Checks {
		r.out.Correct = r.out.Correct && c.OK
	}
	return &r.out, nil
}

func (r *run) measure() error {
	spec := r.opts.Spec
	openFor, closedFor, warmFor := phases(spec, r.opts.Seconds)

	// Set-up, several times over; the last cluster is the one measured.
	// A traced run does not report set-up time and sets up once.
	n := setups
	if r.opts.Trace {
		n = 1
	}
	var cl *cluster.Cluster
	var state *loadgen.KeyState
	var setupS []float64
	for i := 0; i < n; i++ {
		if cl != nil {
			if err := cl.Stop(); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		if cl, state, took, err = r.setUp(); err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		r.logf("set-up %d/%d: %.3f s", i+1, n, took.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()
	r.values["setup_s"] = loadgen.Median(setupS)

	hooks := &clientHooks{}
	depth, callers := loadgen.PipelineDepth, loadgen.ClosedCallers
	if spec.Serial {
		depth, callers = 0, 1
	}
	cs := clients(cl.FrontAddr(), depth, hooks)
	defer closeAll(cs)
	tgt := &loadgen.Target{Clients: cs, ValueBytes: spec.ValueBytes, State: state}

	// Streams are built before the clock starts.
	var openStream *loadgen.Stream
	if openFor > 0 {
		openStream = loadgen.NewOpenStream(spec, r.opts.Seed, loadgen.PhaseOpen, spec.OpenRate, openFor.Seconds())
	}
	closedOps := loadgen.NewOps(spec, r.opts.Seed, loadgen.PhaseClosed, 1<<20)
	warmOps := loadgen.NewOps(spec, r.opts.Seed, loadgen.PhaseWarm, 1<<18)

	// Warm-up, untimed: fills the cache and the connection pools.
	warm := tgt.Closed(warmOps, callers, warmFor)
	r.logf("warm-up: %d ops in %.2f s", len(warm.Samples), warm.Elapsed.Seconds())
	hooks.reset()

	before, err := cl.Scrape()
	if err != nil {
		return err
	}
	var open *loadgen.Result
	if openStream != nil {
		open = tgt.Open(openStream, loadgen.OpenWorkers, 2*time.Second)
		r.logf("open loop: %d ops at %.0f/s in %.2f s, %d failed", open.Attempted, spec.OpenRate, open.Elapsed.Seconds(), open.Failed())
	}
	cpu0, err := cl.CPU()
	if err != nil {
		return err
	}
	closed := tgt.Closed(closedOps, callers, closedFor)
	cpu1, err := cl.CPU()
	if err != nil {
		return err
	}
	r.logf("closed loop: %d ops in %.2f s, %d failed", closed.Attempted, closed.Elapsed.Seconds(), closed.Failed())
	after, err := cl.Scrape()
	if err != nil {
		return err
	}
	rss, err := cl.RSSMiB()
	if err != nil {
		return err
	}
	if err := cl.Alive(); err != nil {
		return err
	}

	timed := []*loadgen.Result{closed}
	if open != nil {
		timed = []*loadgen.Result{open, closed}
	}
	r.endToEnd(timed, cpu1-cpu0, rss)
	r.scraped(before, after, hooks)
	if err := r.walChecks(cl, state, timed); err != nil {
		return err
	}
	stopped = true
	if err := cl.Stop(); err != nil {
		return err
	}
	r.values["loadgen.build_s"] = r.opts.BuildS

	if r.opts.Trace {
		return r.traced()
	}
	return nil
}

// endToEnd computes the metrics a user of the system sees from the timed
// phases: the open loop (absent on the serial workload) and the closed
// loop.
func (r *run) endToEnd(timed []*loadgen.Result, cpu time.Duration, rssMiB float64) {
	const window = int64(time.Second)
	// Latencies come from the open loop, timed from the intended send
	// time, and their median is the quiet median; the serial workload
	// reports its closed loop, whose hits and misses mix about evenly, by
	// the median over the whole phase (loadgen.Summarise says why).
	lat, closed := timed[0], timed[len(timed)-1]
	get := loadgen.Summarise(lat.Samples, false, window)
	set := loadgen.Summarise(lat.Samples, true, window)
	r.values["get_p50_us"], r.values["set_p50_us"] = get.QuietP50us, set.QuietP50us
	if lat == closed {
		r.values["get_p50_us"], r.values["set_p50_us"] = get.P50us, set.P50us
	}
	r.values["get_p95_us"], r.values["get_p99_us"] = get.P95us, get.P99us
	r.values["set_p95_us"], r.values["set_p99_us"] = set.P95us, set.P99us
	r.out.Counts["get_latency_samples"], r.out.Counts["get_tail_windows"] = get.Count, get.Windows
	r.out.Counts["set_latency_samples"], r.out.Counts["set_tail_windows"] = set.Count, set.Windows

	r.values["peak_ops_s"] = loadgen.Throughput(closed, window)
	r.out.Counts["closed_loop_replies"] = len(closed.Samples)
	if len(closed.Samples) > 0 {
		r.values["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(len(closed.Samples))
	}
	r.values["rss_mb"] = rssMiB

	valid := true
	r.values["loadgen.lag_p99_us"], r.values["loadgen.sent"] = 0, float64(closed.Attempted)
	wrong, firstWrong := 0, ""
	for _, res := range timed {
		r.out.Attempted += res.Attempted
		r.out.Failed += res.Failed()
		if wrong += res.Wrong; res.Wrong > 0 && firstWrong == "" {
			firstWrong = res.FirstFailure
		}
		if res.Failed() > 0 {
			r.out.Notes = append(r.out.Notes, fmt.Sprintf("%d errors, %d BUSY, %d wrong, %d unsent; first: %s",
				res.Errors, res.Busy, res.Wrong, res.Unsent, res.FirstFailure))
		}
	}
	r.check("every reply verified", wrong == 0, "%d wrong or stale values of %d replies %s", wrong, r.out.Attempted-r.out.Failed+wrong, firstWrong)
	if open := timed[0]; open != closed {
		lag := loadgen.LagP99us(open.Lags)
		r.values["loadgen.lag_p99_us"] = lag
		r.values["loadgen.sent"] += float64(len(open.Lags))
		if lag > maxLagP99us {
			valid = false
			r.out.Notes = append(r.out.Notes, fmt.Sprintf("generator ran late: lag p99 %.0f us > %d us, latencies not valid", lag, maxLagP99us))
		}
	}
	r.out.Valid = valid
	r.values["fail_frac"] = float64(r.out.Failed) / float64(max(r.out.Attempted, 1))
}

// scraped computes the per-layer metrics that come from the servers'
// own counters, as deltas over the timed phases.
func (r *run) scraped(before, after cluster.Counters, hooks *clientHooks) {
	front := func(name string) float64 { return after.Front[name] - before.Front[name] }
	hits, misses := front("cache_hits_total"), front("cache_misses_total")
	r.values["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		r.values["cache.hit_ratio"] = hits / (hits + misses)
	}
	r.values["cache.coalesced_misses"] = front("coalesced_misses_total")
	r.values["kvstore.frontend.retries"] = front("retries_total")
	r.values["kvstore.frontend.breaker_open"] = front("breaker_open_total")
	r.values["kvstore.frontend.hints_queued"] = front("hints_queued_total")
	r.values["kvstore.frontend.read_repair"] = front("read_repair_total")
	r.values["kvstore.frontend.shed"] = front("shed_total")

	var total, most, shed float64
	for i := range after.Nodes {
		d := after.Nodes[i]["requests_total"] - before.Nodes[i]["requests_total"]
		total += d
		most = max(most, d)
		shed += after.Nodes[i]["shed_total"] - before.Nodes[i]["shed_total"]
	}
	r.values["kvstore.backend.requests"] = total
	r.values["kvstore.backend.shed"] = shed
	gain := 0.0
	if total > 0 {
		gain = most / (total / float64(len(after.Nodes)))
	}
	// The paper's quantity: the most loaded backend over the even share.
	r.values["kvstore.backend.load_ratio"] = gain
	r.values["attack_gain"] = gain

	r.values["kvstore.client.window_wait_us"] = float64(hooks.waited.Load()) / 1e3
	r.values["kvstore.client.retries"] = float64(hooks.retries.Load())

	spec := r.opts.Spec
	served := front("requests_total")
	switch spec.Name {
	case "hit_small":
		r.check("cache holds the queried set", r.values["cache.hit_ratio"] >= 0.98, "cache.hit_ratio = %.4f, want >= 0.98", r.values["cache.hit_ratio"])
		r.check("backends idle", total < 0.02*served, "backends served %.0f requests for %.0f at the frontend, want < 2%%", total, served)
	case "adv_miss":
		cstar := int(after.Front["cache_capacity"])
		bound := core.Params{Nodes: Nodes, Replication: Replication, Items: loadgen.Keys, CacheSize: cstar, KOverride: PaperK}.BoundNormalizedMaxLoad(spec.QueryKeys)
		r.logf("attack_gain %.4f; Eq. 10 bound at x = %d, c = %d: %.4f", gain, spec.QueryKeys, cstar, bound)
		r.out.Notes = append(r.out.Notes, fmt.Sprintf("attack_gain %.4f beside core.Params.BoundNormalizedMaxLoad(%d) = %.4f with c* = %d", gain, spec.QueryKeys, bound, cstar))
		r.check("cache bypassed", r.values["cache.hit_ratio"] <= 0.01, "cache.hit_ratio = %.4f, want <= 0.01", r.values["cache.hit_ratio"])
		r.check("attack gain below alert level", gain <= AlertGain, "attack_gain = %.4f, secguard alerts above %.1f", gain, AlertGain)
	}
}

// walChecks measures the WAL from outside and, on the WAL workload,
// crashes one node and checks that its replay holds every acknowledged
// write.
func (r *run) walChecks(cl *cluster.Cluster, state *loadgen.KeyState, phases []*loadgen.Result) error {
	r.values["wal.disk_bytes_per_user_byte"], r.values["wal.restart_ms"] = 0, 0
	spec := r.opts.Spec
	if !spec.WAL {
		return nil
	}
	// Every acknowledged SET — preload included — was logged on d
	// replicas.
	sets := loadgen.Keys
	for _, res := range phases {
		for _, s := range res.Samples {
			if s.Set {
				sets++
			}
		}
	}
	disk, err := cl.WALBytes()
	if err != nil {
		return err
	}
	r.values["wal.disk_bytes_per_user_byte"] = float64(disk) / (float64(sets) * float64(spec.ValueBytes) * Replication)

	// One sync interval from now every acknowledged write has also been
	// fsynced by the background flusher.
	time.Sleep(syncInterval + syncInterval/5)
	victim := int(r.opts.Seed % Nodes)
	if err := cl.CrashNode(victim); err != nil {
		return err
	}
	took, err := cl.RestartNode(victim)
	if err != nil {
		return err
	}
	r.values["wal.restart_ms"] = float64(took.Microseconds()) / 1e3

	part := partition.NewHash(Nodes, Replication, xrand.Derive(r.opts.Seed, pathPartition))
	var owned []uint32
	group := make([]int, 0, Replication)
	for k, name := range state.Names {
		for _, node := range part.GroupAppend(group[:0], kvstore.KeyID(name)) {
			if node == victim {
				owned = append(owned, uint32(k))
			}
		}
	}
	node := kvstore.NewClient(cl.NodeAddr(victim))
	defer node.Close()
	lost, stale, firstBad := 0, 0, ""
	const batch = 256
	names := make([]string, 0, batch)
	for start := 0; start < len(owned); start += batch {
		keys := owned[start:min(start+batch, len(owned))]
		names = names[:0]
		for _, k := range keys {
			names = append(names, state.Names[k])
		}
		got, err := node.MGet(names)
		if err != nil {
			return fmt.Errorf("harness: read kvnode%d after restart: %w", victim, err)
		}
		for i, k := range keys {
			bad := ""
			if !got[i].Found {
				lost++
				bad = fmt.Sprintf("%s missing", names[i])
			} else if seq, err := loadgen.CheckValue(got[i].Value, k, spec.ValueBytes); err != nil {
				lost++
				bad = err.Error()
			} else if seq < state.Acked(k) {
				stale++
				bad = fmt.Sprintf("%s at write %d, acknowledged %d", names[i], seq, state.Acked(k))
			}
			if bad != "" && firstBad == "" {
				firstBad = bad
			}
		}
	}
	r.out.Counts["crash_check_keys"] = len(owned)
	r.logf("crash check: kill -9 kvnode%d, restart to first Ping %.1f ms, %d owned keys read back, %d lost, %d stale",
		victim, r.values["wal.restart_ms"], len(owned), lost, stale)
	r.check("replay holds every acknowledged write", lost == 0 && stale == 0 && len(owned) > 0,
		"kvnode%d after kill -9 and restart: %d of %d owned keys lost, %d older than acknowledged (%s); %s",
		victim, lost, len(owned), stale, firstBad, report.FlushPolicy)
	return nil
}

// traced runs the in-process ladder and adds its per-layer metrics.
func (r *run) traced() error {
	res, err := ladder.Run(ladder.Options{
		Spec: r.opts.Spec, Seed: r.opts.Seed,
		Nodes: Nodes, Replication: Replication, KOverride: PaperK,
		PartitionSeed: xrand.Derive(r.opts.Seed, pathPartition),
		OutDir:        r.opts.OutDir,
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Values))
	for name, v := range res.Values {
		r.values[name] = v
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.logf("%-34s %12.2f", name, res.Values[name])
	}
	r.out.Notes = append(r.out.Notes, res.Notes...)
	return nil
}
