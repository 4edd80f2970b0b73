package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/cache"
	"securecache/internal/kvstore"
	"securecache/internal/workload"
)

// tierReport is the tier baseline: the distributed frontend cache tier
// against the single-frontend baseline on the same backends and the
// same provisioned cache budget.
type tierReport struct {
	Nodes       int `json:"nodes"`
	Replication int `json:"replication"`
	Frontends   int `json:"frontends"`
	Keys        int `json:"keys"`
	CStar       int `json:"cstar"`
	CacheShare  int `json:"tier_cache_share"`

	SingleReadOps float64 `json:"single_read_ops_per_sec"`
	TierReadOps   float64 `json:"tier_read_ops_per_sec"`
	TierSpeedup   float64 `json:"tier_speedup"`

	AttackHotKeys      int     `json:"attack_hot_keys"`
	AttackReads        int     `json:"attack_reads"`
	AttackFailures     uint64  `json:"attack_failures"`
	AttackFrontNormMax float64 `json:"attack_front_norm_max"`
	AttackBackNormMax  float64 `json:"attack_back_norm_max"`
}

// costTier measures the three things the tier design promises, first
// behind one frontend and then split across k tier members driven by
// the power-of-two-choices client:
//
//   - read throughput scales with k (the tier members serve hits in
//     parallel instead of queuing behind one frontend);
//   - a topology-aware attack — every query aimed at keys that share
//     one victim frontend as a candidate — still spreads across the
//     tier (normalized max frontend load near 1, not near k/2);
//   - the backends stay behind the Eq. 10 bound throughout, because
//     the tier mapping is independent of the secret backend partition.
func costTier(cfg costConfig, w io.Writer) (tierReport, error) {
	report := tierReport{
		Nodes: cfg.Nodes, Replication: cfg.Replication,
		Frontends: cfg.Frontends, Keys: cfg.Keys,
	}
	const (
		secretSeed = 0x5EED0008
		tierSeed   = 0x7153
	)
	provision := kvstore.ProvisionConfig{Items: cfg.Keys, KOverride: 1.2}

	// Phase 1: single-frontend baseline, same backends and provision.
	single, err := kvstore.StartLocalCluster(kvstore.LocalConfig{
		Nodes: cfg.Nodes, Replication: cfg.Replication,
		PartitionSeed: secretSeed,
		Cache:         cache.NewLRU(256),
		Provision:     provision,
	})
	if err != nil {
		return report, err
	}
	client := kvstore.NewClient(single.FrontendAddr)
	_, err = preload(cfg.Keys, payload, client.Set)
	if err == nil {
		report.SingleReadOps = uniformReads(cfg, client.Get)
	}
	client.Close()
	single.Close()
	if err != nil {
		return report, fmt.Errorf("single frontend: %w", err)
	}
	fmt.Fprintf(w, "single frontend: %.0f reads/s (n=%d d=%d m=%d)\n",
		report.SingleReadOps, cfg.Nodes, cfg.Replication, cfg.Keys)

	// Phase 2: the tier — same backends-per-key placement (same secret
	// seed), cache budget split across k members by CacheShare.
	tcl, err := kvstore.StartTierCluster(kvstore.TierLocalConfig{
		Nodes: cfg.Nodes, Replication: cfg.Replication, Frontends: cfg.Frontends,
		PartitionSeed: secretSeed, TierSeed: tierSeed,
		NewCache:  func() cache.Cache { return cache.NewLRU(256) },
		Provision: provision,
	})
	if err != nil {
		return report, err
	}
	defer tcl.Close()
	report.CacheShare = tcl.Frontends[0].TierStatus().CacheShare
	report.CStar = tcl.Frontends[0].MembershipStatus().CStar
	if _, err := preload(cfg.Keys, payload, tcl.Client.Set); err != nil {
		return report, fmt.Errorf("tier: %w", err)
	}
	report.TierReadOps = uniformReads(cfg, tcl.Client.Get)
	report.TierSpeedup = report.TierReadOps / report.SingleReadOps
	fmt.Fprintf(w, "tier of %d:      %.0f reads/s (%.2fx; c*=%d split to %d per member)\n",
		cfg.Frontends, report.TierReadOps, report.TierSpeedup, report.CStar, report.CacheShare)

	// Phase 3: topology-aware attack. The adversary knows the public
	// tier mapping and aims everything at keys whose candidate set
	// includes frontend 0.
	var hot []string
	for i := 0; i < cfg.Keys && len(hot) < cfg.Keys/2; i++ {
		key := workload.KeyName(i)
		if a, b := tcl.Client.Candidates(key); a == 0 || b == 0 {
			hot = append(hot, key)
		}
	}
	report.AttackHotKeys = len(hot)
	frontBefore := tcl.FrontendRequestCounts()
	backBefore := tcl.BackendRequestCounts()
	var failures atomic.Uint64
	_, report.AttackReads = drive(cfg, func(worker, i int) {
		if _, err := tcl.Client.Get(hot[(worker*len(hot)/cfg.Workers+i)%len(hot)]); err != nil {
			failures.Add(1)
		}
	})
	report.AttackFailures = failures.Load()
	report.AttackFrontNormMax = normMaxDelta(tcl.FrontendRequestCounts(), frontBefore)
	report.AttackBackNormMax = normMaxDelta(tcl.BackendRequestCounts(), backBefore)
	fmt.Fprintf(w, "topology-aware attack: %d reads over %d hot keys, %d failures\n",
		report.AttackReads, report.AttackHotKeys, report.AttackFailures)
	fmt.Fprintf(w, "  normalized max frontend load %.3f (one-choice would near %.1f)\n",
		report.AttackFrontNormMax, float64(cfg.Frontends)/2)
	fmt.Fprintf(w, "  normalized max backend load  %.3f\n", report.AttackBackNormMax)
	return report, checkSweep(tcl.Client.Get, cfg.Keys)
}

// uniformReads drives cfg.Reads uniform GETs from cfg.Workers
// goroutines, each with its own key stream, and returns the aggregate
// ops/sec.
func uniformReads(cfg costConfig, get func(string) ([]byte, error)) float64 {
	gens := make([]*workload.Generator, cfg.Workers)
	for i := range gens {
		gens[i] = workload.NewGenerator(workload.NewUniform(cfg.Keys, cfg.Keys), uint64(i)+11)
	}
	ops, _ := drive(cfg, func(worker, _ int) { get(workload.KeyName(gens[worker].Next())) })
	return ops
}

// drive splits cfg.Reads calls of op(worker, i) across cfg.Workers
// goroutines and returns the aggregate ops/sec and the issued count.
func drive(cfg costConfig, op func(worker, i int)) (float64, int) {
	perWorker := max(cfg.Reads/cfg.Workers, 1)
	var wg sync.WaitGroup
	start := time.Now()
	for worker := 0; worker < cfg.Workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op(worker, i)
			}
		}()
	}
	wg.Wait()
	total := perWorker * cfg.Workers
	return float64(total) / time.Since(start).Seconds(), total
}

// normMaxDelta returns the normalized max of after-before deltas over
// the slots that saw traffic at all (crashed/idle slots excluded from
// the width would skew the share, so the full width is kept).
func normMaxDelta(after, before []uint64) float64 {
	var total, max uint64
	for i := range after {
		delta := after[i] - before[i]
		total += delta
		if delta > max {
			max = delta
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(after)))
}
