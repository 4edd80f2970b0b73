// Package attack models the paper's adversary: a client that knows the
// public system parameters — the stored key set (m), the number of
// back-end nodes (n), the replication factor (d), and the front-end cache
// size (c) — but not the randomized key-to-group mapping, and who crafts
// an access pattern to maximize the load of the hottest back-end node.
//
// The package glues the theory (internal/core: what the optimal pattern
// is) to the simulator (internal/sim: what that pattern actually achieves
// against a concrete random partition), and is what the Figure 4/5
// experiments and `secexperiments attack` drive.
package attack

import (
	"fmt"

	"securecache/internal/cluster"
	"securecache/internal/core"
	"securecache/internal/partition"
	"securecache/internal/sim"
	"securecache/internal/workload"
)

// Adversary holds the knowledge the paper grants the attacker.
type Adversary struct {
	// Items is m, the number of keys stored in the system.
	Items int
	// Nodes is n.
	Nodes int
	// Replication is d.
	Replication int
	// CacheSize is c.
	CacheSize int
	// KOverride optionally fixes the bound constant k (the paper's
	// figures use 1.2); zero selects the calibrated default.
	KOverride float64
}

// Params converts the adversary's knowledge to core.Params.
func (a Adversary) Params() core.Params {
	return core.Params{
		Nodes:       a.Nodes,
		Replication: a.Replication,
		Items:       a.Items,
		CacheSize:   a.CacheSize,
		KOverride:   a.KOverride,
	}
}

// BestX returns the theory-optimal number of keys to query (c+1 below the
// provisioning threshold, m above).
func (a Adversary) BestX() int { return a.Params().BestAdversarialX() }

// DistributionForX returns the canonical Theorem-1 attack distribution
// querying exactly x keys (equal rates, h = 1/x — what the paper's
// simulations replay). It returns an error if x is outside [1, m].
func (a Adversary) DistributionForX(x int) (workload.Distribution, error) {
	if x < 1 || x > a.Items {
		return nil, fmt.Errorf("attack: x = %d outside [1, m=%d]", x, a.Items)
	}
	return workload.NewAdversarial(a.Items, x, 0), nil
}

// BestDistribution returns the attack distribution at the theory-optimal
// x.
func (a Adversary) BestDistribution() (workload.Distribution, error) {
	return a.DistributionForX(a.BestX())
}

// EvalConfig fixes the execution parameters of an empirical attack
// evaluation.
type EvalConfig struct {
	// Rate is the total attack rate R (> 0).
	Rate float64
	// Runs is the number of fresh random partitions to attack (0 = 200).
	Runs int
	// Seed roots all per-run randomness.
	Seed uint64
	// Policy is the cluster's replica-selection policy (default
	// least-loaded).
	Policy cluster.Policy
	// Partitioner is the partitioning scheme (default hash).
	Partitioner partition.Kind
}

// Result is the outcome of one empirical attack evaluation.
type Result struct {
	// X is the number of keys queried.
	X int
	// Aggregate is the full multi-run aggregate.
	Aggregate *sim.Aggregate
	// MaxGain is the max over runs of the normalized max load — the
	// statistic the paper's Figure 3 reports ("max of the maximum load").
	MaxGain core.AttackGain
	// MeanGain is the mean over runs.
	MeanGain core.AttackGain
}

// Evaluate attacks with exactly x queried keys and measures the achieved
// gains.
func (a Adversary) Evaluate(x int, cfg EvalConfig) (Result, error) {
	dist, err := a.DistributionForX(x)
	if err != nil {
		return Result{}, err
	}
	agg, err := sim.Run(sim.Scenario{
		Nodes:       a.Nodes,
		Replication: a.Replication,
		CacheSize:   a.CacheSize,
		Dist:        dist,
		Rate:        cfg.Rate,
		Runs:        cfg.Runs,
		Seed:        cfg.Seed,
		Policy:      cfg.Policy,
		Partitioner: cfg.Partitioner,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		X:         x,
		Aggregate: agg,
		MaxGain:   core.AttackGain(agg.MaxOfNormMax()),
		MeanGain:  core.AttackGain(agg.NormMax.Mean()),
	}, nil
}

// EvaluateBest empirically determines the adversary's best move the way
// the paper's Figure 5 does: try the two theory candidates — the smallest
// uncacheable attack x = c+1 and the full key space x = m — and return
// the one with the higher achieved (max-over-runs) gain.
func (a Adversary) EvaluateBest(cfg EvalConfig) (Result, error) {
	candidates := []int{a.CacheSize + 1, a.Items}
	if candidates[0] < 2 {
		candidates[0] = 2
	}
	if candidates[0] >= a.Items {
		candidates = candidates[1:]
	}
	var best Result
	for i, x := range candidates {
		r, err := a.Evaluate(x, cfg)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || r.MaxGain > best.MaxGain {
			best = r
		}
	}
	return best, nil
}

// SweepX evaluates a list of x values and returns a table with columns
// x, max gain, mean gain, and the Eq. 10 bound — the data behind
// Figure 3.
func (a Adversary) SweepX(xs []int, cfg EvalConfig) (*sim.Table, error) {
	p := a.Params()
	tbl := sim.NewTable(
		fmt.Sprintf("normalized max load vs x (n=%d d=%d c=%d, %d runs)",
			a.Nodes, a.Replication, a.CacheSize, cfg.Runs),
		"x", "max_gain", "mean_gain", "bound")
	for _, x := range xs {
		r, err := a.Evaluate(x, cfg)
		if err != nil {
			return nil, err
		}
		bound := 0.0
		if x > a.CacheSize && x >= 2 {
			bound = p.BoundNormalizedMaxLoad(x)
		}
		tbl.AddRow(float64(x), float64(r.MaxGain), float64(r.MeanGain), bound)
	}
	return tbl, nil
}
