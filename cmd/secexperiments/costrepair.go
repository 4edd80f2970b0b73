package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"securecache/internal/faultnet"
	"securecache/internal/kvstore"
	"securecache/internal/wal"
	"securecache/internal/workload"
)

// churned is the state the repair and wal baselines leave key k in:
// every tenth key deleted (nil), the even keys overwritten with v1, the
// rest still v0 — so a rebuilt replica must carry overwrites and
// tombstones, not just fresh inserts.
func churned(k int, v0, v1 []byte) []byte {
	switch {
	case k%10 == 9:
		return nil
	case k%2 == 0:
		return v1
	}
	return v0
}

// repairReport is the repair baseline: what a crashed-and-wiped replica
// costs to rebuild, and what the cluster pays while degraded.
type repairReport struct {
	Nodes            int     `json:"nodes"`
	Replication      int     `json:"replication"`
	WriteQuorum      int     `json:"write_quorum"`
	Keys             int     `json:"keys"`
	BaselineSetMean  float64 `json:"baseline_set_micros_mean"`
	BaselineSetP99   float64 `json:"baseline_set_micros_p99"`
	OutageSetMean    float64 `json:"outage_set_micros_mean"`
	OutageSetP99     float64 `json:"outage_set_micros_p99"`
	OutageSetFails   int     `json:"outage_set_failures"`
	HintsQueued      uint64  `json:"hints_queued"`
	HintReplaySecs   float64 `json:"hint_replay_seconds"`
	HintsPerSecond   float64 `json:"hints_per_second"`
	RepairKeys       uint64  `json:"repair_keys_repaired"`
	RepairSecs       float64 `json:"repair_seconds"`
	RepairPerSecond  float64 `json:"repair_keys_per_second"`
	StaleReads       int     `json:"post_repair_stale_reads"`
	ResurrectedDels  int     `json:"post_repair_resurrected_deletes"`
	ConvergedSeconds float64 `json:"crash_to_converged_seconds"`
}

// costRepair boots the cluster with one backend behind a fault proxy,
// preloads the key space, crashes the node, overwrites half the keys
// (and deletes a tenth) during the outage, then restarts the node empty
// and times hint replay plus anti-entropy until convergence.
func costRepair(cfg costConfig, w io.Writer) (repairReport, error) {
	report := repairReport{Nodes: cfg.Nodes, Replication: cfg.Replication, Keys: cfg.Keys}

	var (
		backends []*kvstore.Backend
		addrs    []string
	)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	for i := 0; i < cfg.Nodes; i++ {
		b, addr, err := kvstore.StartBackend(i, "127.0.0.1:0")
		if err != nil {
			return report, err
		}
		backends = append(backends, b)
		addrs = append(addrs, addr)
	}

	// The crash node sits behind a fault proxy so the frontend has a live
	// address to be refused by while the node is down, and the node's own
	// port stays free for the restart.
	crashAddr := addrs[1]
	proxy, err := faultnet.Start(crashAddr)
	if err != nil {
		return report, err
	}
	defer proxy.Close()
	addrs[1] = proxy.Addr()

	front, err := kvstore.NewFrontend(kvstore.FrontendConfig{
		BackendAddrs:   addrs,
		Replication:    cfg.Replication,
		Client:         kvstore.ClientConfig{MaxRetries: -1, DialTimeout: 200 * time.Millisecond},
		Health:         kvstore.HealthConfig{FailureThreshold: 2, ProbeInterval: 50 * time.Millisecond},
		RepairInterval: -1, // the baseline drives repair passes itself, timed
	})
	if err != nil {
		return report, err
	}
	defer front.Close()
	report.WriteQuorum = (cfg.Replication + 2) / 2

	fmt.Fprintf(w, "loading %d keys into %d nodes (d=%d, W=%d)...\n",
		cfg.Keys, cfg.Nodes, cfg.Replication, report.WriteQuorum)
	gen0, gen1 := []byte("gen0"), []byte("gen1")
	base, err := preload(cfg.Keys, gen0, front.Set)
	if err != nil {
		return report, err
	}
	report.BaselineSetMean, report.BaselineSetP99 = base.mean(), base.p99()
	fmt.Fprintf(w, "baseline sets: mean %.0fµs p99≈%.0fµs\n", report.BaselineSetMean, report.BaselineSetP99)

	fmt.Fprintln(w, "crashing node 1...")
	proxy.SetFaults(faultnet.Faults{Blackhole: true, RejectConns: true})
	proxy.CloseExisting()
	backends[1].Close()
	crashed := time.Now()

	// Outage workload: overwrite the even keys, delete every tenth. The
	// odd keys are untouched — no hint exists for them, so the restarted
	// replica can only recover them through anti-entropy.
	outage := newSample()
	for k := 0; k < cfg.Keys; k++ {
		name := workload.KeyName(k)
		var err error
		switch want := churned(k, gen0, gen1); {
		case want == nil:
			err = front.Del(name)
		case bytes.Equal(want, gen1):
			err = outage.time(func() error { return front.Set(name, gen1) })
		}
		if err != nil {
			report.OutageSetFails++
		}
	}
	m := front.Metrics()
	report.OutageSetMean, report.OutageSetP99 = outage.mean(), outage.p99()
	report.HintsQueued = m.Counter("hints_queued_total").Value()
	fmt.Fprintf(w, "outage sets: mean %.0fµs p99≈%.0fµs, %d failures, %d hints queued\n",
		report.OutageSetMean, report.OutageSetP99, report.OutageSetFails, report.HintsQueued)

	fmt.Fprintln(w, "restarting node 1 with an empty store...")
	b1, _, err := kvstore.StartBackend(1, crashAddr)
	if err != nil {
		return report, err
	}
	backends[1] = b1
	proxy.Clear()
	replayStart := time.Now()
	deadline := replayStart.Add(60 * time.Second)
	for m.Gauge("hints_pending").Value() > 0 {
		if time.Now().After(deadline) {
			return report, errors.New("hints never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	report.HintReplaySecs = time.Since(replayStart).Seconds()
	replayed := m.Counter("hints_replayed_total").Value()
	report.HintsPerSecond = float64(replayed) / report.HintReplaySecs
	fmt.Fprintf(w, "hint replay: %d hints in %.2fs (%.0f hints/sec)\n",
		replayed, report.HintReplaySecs, report.HintsPerSecond)

	repairStart := time.Now()
	for {
		nrep, err := front.RunRepairPass()
		if err != nil {
			return report, err
		}
		if nrep == 0 {
			break
		}
	}
	report.RepairSecs = time.Since(repairStart).Seconds()
	report.RepairKeys = m.Counter("repair_keys_repaired_total").Value()
	report.RepairPerSecond = float64(report.RepairKeys) / report.RepairSecs
	report.ConvergedSeconds = time.Since(crashed).Seconds()
	fmt.Fprintf(w, "anti-entropy: %d keys repaired in %.2fs (%.0f keys/sec)\n",
		report.RepairKeys, report.RepairSecs, report.RepairPerSecond)

	// Full verification sweep through the public read path.
	report.StaleReads, report.ResurrectedDels = sweep(cfg.Keys, front.Get,
		func(k int) []byte { return churned(k, gen0, gen1) })
	fmt.Fprintf(w, "converged %.2fs after crash: %d stale reads, %d resurrected deletes\n",
		report.ConvergedSeconds, report.StaleReads, report.ResurrectedDels)
	if report.StaleReads > 0 || report.ResurrectedDels > 0 {
		return report, errors.New("post-repair sweep found divergence")
	}
	return report, nil
}

// walReport records what crash recovery costs when the node keeps a
// local write-ahead log, against the network-rebuild numbers in
// repairReport. crash_to_serving_seconds is the headline: the time from
// "process restarts on the old data dir" to "exact pre-crash keyset in
// memory, ready to serve" — the durable-node alternative to the
// crash_to_converged_seconds a wiped replica pays for hinted handoff
// plus anti-entropy.
type walReport struct {
	Keys             int     `json:"keys"`
	ValueBytes       int     `json:"value_bytes"`
	Appends          uint64  `json:"wal_appends"`
	AppendSecs       float64 `json:"append_seconds"`
	AppendsPerSec    float64 `json:"appends_per_second"`
	LogBytes         int64   `json:"log_bytes"`
	Segments         int     `json:"segments"`
	ReplayedKeys     uint64  `json:"replayed_keys"`
	TornTruncations  uint64  `json:"torn_truncations"`
	HintLoads        uint64  `json:"hint_loads"`
	ReplaySecs       float64 `json:"replay_seconds"`
	ReplayKeysPerSec float64 `json:"replay_keys_per_second"`
	CrashToServing   float64 `json:"crash_to_serving_seconds"`
	StaleReads       int     `json:"post_replay_stale_reads"`
	ResurrectedDels  int     `json:"post_replay_resurrected_deletes"`

	// Comparison against the recorded network-rebuild baseline
	// (BENCH_repair.json), when present.
	RebuildBaselineSecs float64 `json:"network_rebuild_baseline_seconds,omitempty"`
	SpeedupVsRebuild    float64 `json:"speedup_vs_network_rebuild,omitempty"`
}

// costWAL writes a churned keyset through a durable backend, abandons
// the process state without a clean shutdown (the in-process equivalent
// of kill -9: the log is never closed, its final segment may end in a
// torn record), then times a cold open of the same data directory —
// segment replay with hint-file acceleration — and sweeps the rebuilt
// store for divergence.
func costWAL(cfg costConfig, w io.Writer) (walReport, error) {
	report := walReport{Keys: cfg.Keys, ValueBytes: cfg.ValueBytes}

	dir, err := os.MkdirTemp("", "secexperiments-wal-")
	if err != nil {
		return report, err
	}
	defer os.RemoveAll(dir)

	// Small segments force rotations so replay exercises hint files, and
	// SyncInterval -1 leaves no background goroutine holding the log —
	// abandoning it un-Closed is then a faithful crash image (appends
	// are one write(2) each; only fsync is skipped, which the kernel has
	// already absorbed for an in-process "crash").
	opts := wal.Options{SegmentBytes: 512 << 10, SyncInterval: -1}
	b1 := kvstore.NewBackend(0)
	if _, err := b1.OpenData(dir, opts); err != nil {
		return report, err
	}

	val0 := make([]byte, cfg.ValueBytes)
	val1 := make([]byte, cfg.ValueBytes)
	copy(val0, "gen0")
	copy(val1, "gen1")
	fmt.Fprintf(w, "writing %d keys (x%dB, with overwrites and deletes) through the WAL...\n",
		cfg.Keys, cfg.ValueBytes)
	st1 := b1.Store()
	appendStart := time.Now()
	for k := 0; k < cfg.Keys; k++ {
		st1.SetVersioned(workload.KeyName(k), val0, 1, 1)
	}
	for k := 0; k < cfg.Keys; k += 2 {
		st1.SetVersioned(workload.KeyName(k), val1, 1, 2)
	}
	for k := 9; k < cfg.Keys; k += 10 {
		st1.DeleteVersioned(workload.KeyName(k), 1, 3)
	}
	report.AppendSecs = time.Since(appendStart).Seconds()
	report.Appends = b1.WAL().Stats().Appends
	report.AppendsPerSec = float64(report.Appends) / report.AppendSecs
	report.LogBytes, report.Segments = duSegments(dir)
	fmt.Fprintf(w, "appended %d records in %.2fs (%.0f appends/sec), log %d bytes in %d segments\n",
		report.Appends, report.AppendSecs, report.AppendsPerSec, report.LogBytes, report.Segments)

	// Crash: b1 is simply abandoned — no Close, no final fsync.
	fmt.Fprintln(w, "crashing (log abandoned un-closed) and cold-opening the data dir...")
	bootStart := time.Now()
	b2 := kvstore.NewBackend(0)
	replayStart := time.Now()
	recovered, err := b2.OpenData(dir, opts)
	if err != nil {
		return report, err
	}
	report.ReplaySecs = time.Since(replayStart).Seconds()
	report.CrashToServing = time.Since(bootStart).Seconds()
	defer b2.Close()
	if recovered {
		return report, errors.New("data dir quarantined as corrupt on replay")
	}
	st := b2.WAL().Stats()
	report.ReplayedKeys = st.Replayed
	report.TornTruncations = st.TornTruncations
	report.HintLoads = st.HintLoads
	report.ReplayKeysPerSec = float64(st.Replayed) / report.ReplaySecs
	fmt.Fprintf(w, "replayed %d keys in %.3fs (%.0f keys/sec, %d hint loads, %d torn records truncated)\n",
		st.Replayed, report.ReplaySecs, report.ReplayKeysPerSec, st.HintLoads, st.TornTruncations)

	// Divergence sweep: every key must read back exactly as before the
	// crash — deletes stay deleted, overwrites stay overwritten.
	st2 := b2.Store()
	report.StaleReads, report.ResurrectedDels = sweep(cfg.Keys,
		func(key string) ([]byte, error) {
			if v, ok := st2.Get(key); ok {
				return v, nil
			}
			return nil, kvstore.ErrNotFound
		},
		func(k int) []byte { return churned(k, val0, val1) })
	fmt.Fprintf(w, "serving %.3fs after restart: %d stale reads, %d resurrected deletes\n",
		report.CrashToServing, report.StaleReads, report.ResurrectedDels)
	if report.StaleReads > 0 || report.ResurrectedDels > 0 {
		return report, errors.New("post-replay sweep found divergence")
	}

	if cfg.BaselinePath != "" {
		if blob, err := os.ReadFile(cfg.BaselinePath); err == nil {
			var base repairReport
			if json.Unmarshal(blob, &base) == nil && base.ConvergedSeconds > 0 {
				report.RebuildBaselineSecs = base.ConvergedSeconds
				report.SpeedupVsRebuild = base.ConvergedSeconds / report.CrashToServing
				fmt.Fprintf(w, "vs network rebuild baseline (%s): %.2fs -> %.3fs, %.0fx faster\n",
					cfg.BaselinePath, base.ConvergedSeconds, report.CrashToServing, report.SpeedupVsRebuild)
			}
		} else {
			fmt.Fprintf(w, "no baseline at %s, skipping comparison\n", cfg.BaselinePath)
		}
	}
	return report, nil
}

// duSegments totals the on-disk size of the log's segment files.
func duSegments(dir string) (size int64, segments int) {
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			size += fi.Size()
			segments++
		}
	}
	return size, segments
}
