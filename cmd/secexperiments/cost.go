package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/overload"
	"securecache/internal/partition"
	"securecache/internal/stats"
	"securecache/internal/workload"
)

// The cost baselines measure what the live machinery costs on an
// in-process loopback cluster: secret rotation, a join + drain episode,
// replica repair after a crash, WAL crash recovery, and the frontend
// tier. Each writes the report EXPERIMENTS.md records:
//
//	secexperiments cost rotation   -n 8 -d 3 -m 5000 -json BENCH_rotation.json
//	secexperiments cost membership -n 8 -d 3 -m 5000 -json BENCH_membership.json
//	secexperiments cost repair     -n 5 -d 3 -m 5000 -json BENCH_repair.json
//	secexperiments cost wal        -m 5000 -json BENCH_wal.json
//	secexperiments cost tier       -n 8 -d 3 -k 3 -m 5000 -json BENCH_disttier.json
//
// They are closed-loop and in-process; bench/ is the out-of-process,
// open-loop benchmark.

// costConfig holds every cost baseline's knobs; each reads the ones it
// uses.
type costConfig struct {
	Nodes, Replication, Keys int
	// Rate limits migration moves/sec (rotation, membership; negative =
	// unlimited — measures the machinery's raw throughput rather than
	// the limiter).
	Rate float64
	// Partitioner is the mapping family of the membership baseline's
	// main episode (hash = dense full-reshuffle regime, ring =
	// consistent-hash ~d/n regime). Its ring section is measured
	// separately either way.
	Partitioner partition.Kind
	// ValueBytes and BaselinePath are the wal baseline's value size and
	// the network-repair report it compares against.
	ValueBytes   int
	BaselinePath string
	// Frontends (k), Reads per measured phase and Workers are the tier
	// baseline's.
	Frontends, Reads, Workers int
}

// baselines maps each cost baseline's name to its runner.
var baselines = map[string]func(costConfig, io.Writer) (any, error){
	"rotation":   erase(costRotation),
	"membership": erase(costMembership),
	"repair":     erase(costRepair),
	"wal":        erase(costWAL),
	"tier":       erase(costTier),
}

// erase adapts a baseline returning its own report type to the table.
func erase[R any](run func(costConfig, io.Writer) (R, error)) func(costConfig, io.Writer) (any, error) {
	return func(cfg costConfig, w io.Writer) (any, error) { return run(cfg, w) }
}

// runCost parses one baseline's flags, runs it, and writes its report
// as JSON when -json names a file.
func runCost(args []string, w io.Writer) error {
	if len(args) == 0 || baselines[args[0]] == nil {
		return errors.New("need a baseline: rotation | membership | repair | wal | tier")
	}
	name := args[0]
	fs := flag.NewFlagSet("secexperiments cost "+name, flag.ExitOnError)
	var cfg costConfig
	nodes := 8
	if name == "repair" || name == "wal" {
		nodes = 5
	}
	fs.IntVar(&cfg.Nodes, "n", nodes, "number of backends")
	fs.IntVar(&cfg.Replication, "d", 3, "replication factor")
	fs.IntVar(&cfg.Keys, "m", 5000, "number of keys")
	jsonPath := fs.String("json", "", "also write the report to this file")
	part := "hash"
	switch name {
	case "membership":
		fs.StringVar(&part, "partitioner", part, "mapping family for the main episode: hash | ring")
		fallthrough
	case "rotation":
		fs.Float64Var(&cfg.Rate, "rate", -1, "migration rate limit in keys/sec (negative = unlimited)")
	case "repair", "wal":
		fs.IntVar(&cfg.ValueBytes, "val", 256, "value size in bytes (wal)")
		fs.StringVar(&cfg.BaselinePath, "baseline", "BENCH_repair.json", "network-repair baseline to embed for comparison (wal; missing file = omitted)")
	case "tier":
		fs.IntVar(&cfg.Frontends, "k", 3, "tier width (frontends)")
		fs.IntVar(&cfg.Reads, "reads", 30000, "reads per measured phase")
		fs.IntVar(&cfg.Workers, "workers", 8, "concurrent reader goroutines")
	}
	fs.Parse(args[1:])
	cfg.Partitioner = partition.Kind(part)

	report, err := baselines[name](cfg, w)
	if err != nil || *jsonPath == "" {
		return err
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	return nil
}

// payload is the value the rotation, membership and tier baselines
// store under every key.
var payload = []byte("payload")

// sample is a latency profile in microseconds: moments plus a P² p99.
// An empty sample reads as 0, not NaN, so a report that saw no reads in
// a window still encodes as JSON.
type sample struct {
	sum stats.Summary
	q99 *stats.P2Quantile
}

func newSample() *sample { return &sample{q99: stats.NewP2Quantile(0.99)} }

// time runs op and records its latency if it succeeded.
func (s *sample) time(op func() error) error {
	t0 := time.Now()
	if err := op(); err != nil {
		return err
	}
	us := float64(time.Since(t0).Microseconds())
	s.sum.Add(us)
	s.q99.Add(us)
	return nil
}

func (s *sample) n() int64 { return s.sum.N() }

func (s *sample) mean() float64 {
	if s.n() == 0 {
		return 0
	}
	return s.sum.Mean()
}

func (s *sample) p99() float64 {
	if s.n() == 0 {
		return 0
	}
	return s.q99.Value()
}

// preload writes value under every key name through set, timing each
// write.
func preload(keys int, value []byte, set func(key string, value []byte) error) (*sample, error) {
	s := newSample()
	for k := 0; k < keys; k++ {
		key := workload.KeyName(k)
		if err := s.time(func() error { return set(key, value) }); err != nil {
			return s, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return s, nil
}

// readUntil issues uniform reads over the key space through the
// frontend, timing each, until done (checked before every read) holds.
// A failed read ends the sample with its error.
func readUntil(front *kvstore.Frontend, keys int, seed uint64, done func(s *sample) bool) (*sample, error) {
	s := newSample()
	gen := workload.NewGenerator(workload.NewUniform(keys, keys), seed)
	for !done(s) {
		key := workload.KeyName(gen.Next())
		if err := s.time(func() error { _, err := front.Get(key); return err }); err != nil {
			return s, err
		}
	}
	return s, nil
}

// reads is the steady-state stop rule: one pass's worth of reads.
func reads(count int) func(*sample) bool {
	return func(s *sample) bool { return s.n() >= int64(count) }
}

// settled is the change-window stop rule: no epoch change is open.
// Rotating covers a seed rotation as well as a view change.
func settled(front *kvstore.Frontend) func(*sample) bool {
	return func(*sample) bool {
		st := front.MembershipStatus()
		return !st.Changing && !st.Rotating
	}
}

// sweep reads every key back through get and counts the keys whose
// value differs from want(k), and the keys want says are deleted (nil)
// that still read back.
func sweep(keys int, get func(string) ([]byte, error), want func(k int) []byte) (stale, resurrected int) {
	for k := 0; k < keys; k++ {
		v, err := get(workload.KeyName(k))
		exp := want(k)
		switch {
		case exp == nil:
			if !errors.Is(err, kvstore.ErrNotFound) {
				resurrected++
			}
		case err != nil || !bytes.Equal(v, exp):
			stale++
		}
	}
	return stale, resurrected
}

// unchanged is the sweep expectation of a baseline that only moves
// data: every key still holds payload.
func unchanged(int) []byte { return payload }

// checkSweep fails a baseline whose post-change sweep found divergence.
func checkSweep(get func(string) ([]byte, error), keys int) error {
	if stale, _ := sweep(keys, get, unchanged); stale > 0 {
		return fmt.Errorf("post-change sweep: %d of %d keys stale", stale, keys)
	}
	return nil
}

// rotationReport is the rotation baseline: migration throughput plus
// what the dual-epoch read window costs a concurrent reader.
type rotationReport struct {
	Nodes             int     `json:"nodes"`
	Replication       int     `json:"replication"`
	Keys              int     `json:"keys"`
	Moved             uint64  `json:"keys_moved"`
	MigrationSeconds  float64 `json:"migration_seconds"`
	KeysPerSecond     float64 `json:"keys_per_second"`
	BaselineReadMean  float64 `json:"baseline_read_micros_mean"`
	BaselineReadP99   float64 `json:"baseline_read_micros_p99"`
	RotationReadMean  float64 `json:"rotation_read_micros_mean"`
	RotationReadP99   float64 `json:"rotation_read_micros_p99"`
	AddedReadMean     float64 `json:"added_read_micros_mean"`
	RotationReadCount int64   `json:"rotation_read_count"`
}

// costRotation boots a cluster, loads the key space, measures
// steady-state read latency, then rotates the mapping while a reader
// keeps hammering the keys — recording how fast keys migrate and how
// much the dual-epoch window adds to reads.
func costRotation(cfg costConfig, w io.Writer) (rotationReport, error) {
	report := rotationReport{Nodes: cfg.Nodes, Replication: cfg.Replication, Keys: cfg.Keys}
	lc, err := kvstore.StartLocalCluster(kvstore.LocalConfig{
		Nodes:         cfg.Nodes,
		Replication:   cfg.Replication,
		PartitionSeed: 0x5EED0001,
		Rotation:      kvstore.RotationConfig{Rate: cfg.Rate},
	})
	if err != nil {
		return report, err
	}
	defer lc.Close()
	front := lc.Frontend

	fmt.Fprintf(w, "loading %d keys into %d nodes (d=%d)...\n", cfg.Keys, cfg.Nodes, cfg.Replication)
	if _, err := preload(cfg.Keys, payload, front.Set); err != nil {
		return report, err
	}
	base, err := readUntil(front, cfg.Keys, 3, reads(cfg.Keys))
	if err != nil {
		return report, fmt.Errorf("baseline read: %w", err)
	}
	report.BaselineReadMean, report.BaselineReadP99 = base.mean(), base.p99()
	fmt.Fprintf(w, "baseline reads: mean %.0fµs p99≈%.0fµs\n", report.BaselineReadMean, report.BaselineReadP99)

	start := time.Now()
	if _, err := front.Rotate(0xD00D5EED); err != nil {
		return report, err
	}
	rot, err := readUntil(front, cfg.Keys, 7, settled(front))
	if err != nil {
		return report, fmt.Errorf("read during rotation: %w", err)
	}
	elapsed := time.Since(start)

	report.Moved = front.RotationStatus().Moved
	report.MigrationSeconds = elapsed.Seconds()
	report.KeysPerSecond = float64(report.Moved) / elapsed.Seconds()
	report.RotationReadMean, report.RotationReadP99 = rot.mean(), rot.p99()
	report.AddedReadMean = rot.mean() - base.mean()
	report.RotationReadCount = rot.n()
	fmt.Fprintf(w, "rotation committed in %v: %d keys migrated (%.0f keys/sec)\n",
		elapsed.Round(time.Millisecond), report.Moved, report.KeysPerSecond)
	fmt.Fprintf(w, "reads during rotation: mean %.0fµs p99≈%.0fµs (added mean %.0fµs over %d reads)\n",
		report.RotationReadMean, report.RotationReadP99, report.AddedReadMean, report.RotationReadCount)
	return report, checkSweep(front.Get, cfg.Keys)
}

// membershipReport records one measured join + drain episode.
type membershipReport struct {
	Nodes             int     `json:"nodes"`
	Replication       int     `json:"replication"`
	Keys              int     `json:"keys"`
	Partitioner       string  `json:"partitioner"`
	BaselineReadMean  float64 `json:"baseline_read_micros_mean"`
	BaselineReadP99   float64 `json:"baseline_read_micros_p99"`
	CStarBoot         int     `json:"cstar_boot"`
	CStarAfterJoin    int     `json:"cstar_after_join"`
	CStarAfterDrain   int     `json:"cstar_after_drain"`
	JoinSeconds       float64 `json:"join_seconds"`
	JoinMoved         uint64  `json:"join_keys_moved"`
	JoinRetagged      uint64  `json:"join_keys_retagged"`
	JoinMovedFraction float64 `json:"join_moved_fraction"`
	JoinPredicted     float64 `json:"join_predicted_moved_fraction"`
	JoinReadMean      float64 `json:"join_read_micros_mean"`
	JoinReadP99       float64 `json:"join_read_micros_p99"`
	JoinReadCount     int64   `json:"join_read_count"`
	DrainSeconds      float64 `json:"drain_seconds"`
	DrainMoved        uint64  `json:"drain_keys_moved"`
	DrainRetagged     uint64  `json:"drain_keys_retagged"`
	DrainReadMean     float64 `json:"drain_read_micros_mean"`
	DrainReadP99      float64 `json:"drain_read_micros_p99"`

	Ring *ringEpisode `json:"ring,omitempty"`
}

// ringEpisode records the consistent-hash regression: the same join +
// drain episode under the ring partitioner, where the moved fraction
// must sit in the ~d/n regime instead of the dense hash's ~100%
// reshuffle. The realized fractions come from the migrator's own
// counters, the predicted ones from the staged report's sampling — CI
// pins both via TestMembershipRingMovedFractionRealized.
type ringEpisode struct {
	Nodes              int     `json:"nodes"`
	Replication        int     `json:"replication"`
	Keys               int     `json:"keys"`
	JoinMovedFraction  float64 `json:"join_moved_fraction"`
	JoinPredicted      float64 `json:"join_predicted_moved_fraction"`
	JoinSeconds        float64 `json:"join_seconds"`
	DrainMovedFraction float64 `json:"drain_moved_fraction"`
	DrainPredicted     float64 `json:"drain_predicted_moved_fraction"`
	DrainSeconds       float64 `json:"drain_seconds"`
}

// viewStep is one measured join or drain.
type viewStep struct {
	seconds         float64
	moved, retagged uint64
	predicted       float64
	reads           *sample
	cstar           int
}

// movedFraction is the share of the keys the migrator visited that it
// had to copy rather than re-tag in place.
func (s viewStep) movedFraction() float64 {
	if total := s.moved + s.retagged; total > 0 {
		return float64(s.moved) / float64(total)
	}
	return 0
}

// costMembership boots a cluster, loads the key space, joins one node
// and then drains it back out — a reader hammers the keys through both
// changes, recording the dual-view window's read cost, while the
// moved/retagged counters record the migrator's selectivity. The same
// episode then runs on a ring-partitioned cluster.
func costMembership(cfg costConfig, w io.Writer) (membershipReport, error) {
	report := membershipReport{
		Nodes: cfg.Nodes, Replication: cfg.Replication, Keys: cfg.Keys,
		Partitioner: string(cfg.Partitioner),
	}
	lc, err := startLoaded(cfg, cfg.Partitioner, 0x5EED0002, w)
	if err != nil {
		return report, err
	}
	defer lc.Close()
	front := lc.Frontend
	report.CStarBoot = front.MembershipStatus().CStar
	base, err := readUntil(front, cfg.Keys, 3, reads(cfg.Keys))
	if err != nil {
		return report, fmt.Errorf("baseline read: %w", err)
	}
	report.BaselineReadMean, report.BaselineReadP99 = base.mean(), base.p99()
	fmt.Fprintf(w, "baseline reads: mean %.0fµs p99≈%.0fµs (c*=%d)\n",
		report.BaselineReadMean, report.BaselineReadP99, report.CStarBoot)

	join, drain, err := joinDrain(lc, cfg.Keys)
	if err != nil {
		return report, err
	}
	report.JoinSeconds, report.JoinPredicted = join.seconds, join.predicted
	report.JoinMoved, report.JoinRetagged = join.moved, join.retagged
	report.JoinMovedFraction = join.movedFraction()
	report.JoinReadMean, report.JoinReadP99, report.JoinReadCount = join.reads.mean(), join.reads.p99(), join.reads.n()
	report.CStarAfterJoin = join.cstar
	report.DrainSeconds = drain.seconds
	report.DrainMoved, report.DrainRetagged = drain.moved, drain.retagged
	report.DrainReadMean, report.DrainReadP99 = drain.reads.mean(), drain.reads.p99()
	report.CStarAfterDrain = drain.cstar
	fmt.Fprintf(w, "join committed in %.2fs: %d keys moved, %d re-tagged in place "+
		"(moved fraction %.2f, predicted %.2f); reads mean %.0fµs p99≈%.0fµs; c* %d -> %d\n",
		report.JoinSeconds, report.JoinMoved, report.JoinRetagged,
		report.JoinMovedFraction, report.JoinPredicted,
		report.JoinReadMean, report.JoinReadP99, report.CStarBoot, report.CStarAfterJoin)
	fmt.Fprintf(w, "drain committed in %.2fs: %d keys moved, %d re-tagged; "+
		"reads mean %.0fµs p99≈%.0fµs; c* back to %d\n",
		report.DrainSeconds, report.DrainMoved, report.DrainRetagged,
		report.DrainReadMean, report.DrainReadP99, report.CStarAfterDrain)
	if err := checkSweep(front.Get, cfg.Keys); err != nil {
		return report, err
	}

	// The ring episode: the ~d/n regression the dense hash episode
	// cannot express (its reshuffle is near-total by design).
	ring, err := startLoaded(cfg, partition.KindRing, 0x5EED0003, w)
	if err != nil {
		return report, fmt.Errorf("ring episode: %w", err)
	}
	defer ring.Close()
	join, drain, err = joinDrain(ring, cfg.Keys)
	if err != nil {
		return report, fmt.Errorf("ring episode: %w", err)
	}
	report.Ring = &ringEpisode{
		Nodes: cfg.Nodes, Replication: cfg.Replication, Keys: cfg.Keys,
		JoinMovedFraction: join.movedFraction(), JoinPredicted: join.predicted, JoinSeconds: join.seconds,
		DrainMovedFraction: drain.movedFraction(), DrainPredicted: drain.predicted, DrainSeconds: drain.seconds,
	}
	fmt.Fprintf(w, "ring join committed in %.2fs: moved fraction %.2f (predicted %.2f; dense hash would be ~1.0)\n",
		join.seconds, join.movedFraction(), join.predicted)
	fmt.Fprintf(w, "ring drain committed in %.2fs: moved fraction %.2f (predicted %.2f)\n",
		drain.seconds, drain.movedFraction(), drain.predicted)
	return report, checkSweep(ring.Frontend.Get, cfg.Keys)
}

// startLoaded boots a membership-baseline cluster with the given
// mapping family and loads the key space into it.
func startLoaded(cfg costConfig, kind partition.Kind, seed uint64, w io.Writer) (*kvstore.LocalCluster, error) {
	lc, err := kvstore.StartLocalCluster(kvstore.LocalConfig{
		Nodes:         cfg.Nodes,
		Replication:   cfg.Replication,
		PartitionSeed: seed,
		Partitioner:   kind,
		Rotation:      kvstore.RotationConfig{Rate: cfg.Rate},
		Provision:     kvstore.ProvisionConfig{Items: cfg.Keys, KOverride: 1.2},
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "loading %d keys into %d nodes (d=%d, %s partitioner)...\n",
		cfg.Keys, cfg.Nodes, cfg.Replication, kind)
	if _, err := preload(cfg.Keys, payload, lc.Frontend.Set); err != nil {
		lc.Close()
		return nil, err
	}
	return lc, nil
}

// joinDrain joins one fresh backend into lc and then drains it back
// out, sampling reads through each change until it settles.
func joinDrain(lc *kvstore.LocalCluster, keys int) (join, drain viewStep, err error) {
	front := lc.Frontend
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		return join, drain, err
	}
	var joined int
	join, err = measureStep(front, keys, func() (kvstore.MembershipReport, error) {
		r, err := front.Join(addr)
		if err == nil {
			joined = r.Joined[0].ID
		}
		return r, err
	})
	if err != nil {
		return join, drain, fmt.Errorf("join: %w", err)
	}
	drain, err = measureStep(front, keys, func() (kvstore.MembershipReport, error) { return front.Drain(joined) })
	if err != nil {
		return join, drain, fmt.Errorf("drain: %w", err)
	}
	return join, drain, nil
}

// measureStep stages one view change and reads until it commits.
func measureStep(front *kvstore.Frontend, keys int, change func() (kvstore.MembershipReport, error)) (viewStep, error) {
	m := front.Metrics()
	moved, retagged := m.Counter("migration_keys_moved_total"), m.Counter("migration_keys_retagged_total")
	m0, r0 := moved.Value(), retagged.Value()
	start := time.Now()
	report, err := change()
	if err != nil {
		return viewStep{}, err
	}
	rd, err := readUntil(front, keys, 7, settled(front))
	if err != nil {
		return viewStep{}, fmt.Errorf("read during the change: %w", err)
	}
	return viewStep{
		seconds:   time.Since(start).Seconds(),
		moved:     moved.Value() - m0,
		retagged:  retagged.Value() - r0,
		predicted: report.ExpectedMovedFraction,
		reads:     rd,
		cstar:     front.MembershipStatus().CStar,
	}, nil
}
