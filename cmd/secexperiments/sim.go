package main

import (
	"flag"
	"fmt"
	"io"

	"securecache/internal/cluster"
	"securecache/internal/core"
	"securecache/internal/partition"
	"securecache/internal/sim"
	"securecache/internal/workload"
)

// runSim runs one simulation scenario and prints the aggregate:
// normalized max load (mean, max over runs, 95% CI), cached fraction,
// and the Eq. 10 bound for comparison.
//
//	secexperiments sim -n 1000 -d 3 -m 100000 -c 200 -workload adversarial -x 201
//	secexperiments sim -n 1000 -d 3 -m 100000 -c 100 -workload zipf -zipf-s 1.01
//	secexperiments sim -n 1000 -d 3 -m 100000 -c 100 -workload uniform -policy split
func runSim(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("secexperiments sim", flag.ExitOnError)
	var (
		n        = fs.Int("n", 1000, "number of back-end nodes")
		d        = fs.Int("d", 3, "replication factor")
		m        = fs.Int("m", 100000, "number of items stored")
		c        = fs.Int("c", 200, "front-end cache size (perfect cache)")
		rate     = fs.Float64("rate", 100000, "client query rate R (qps)")
		runs     = fs.Int("runs", 200, "independent runs (fresh partition each)")
		seed     = fs.Uint64("seed", 2013, "root seed")
		kind     = fs.String("workload", "adversarial", "workload: adversarial | uniform | zipf")
		x        = fs.Int("x", 0, "adversarial: number of queried keys (0 = theory-optimal)")
		zipfS    = fs.Float64("zipf-s", 1.01, "zipf exponent")
		policy   = fs.String("policy", "least-loaded", "replica policy: least-loaded | random | split")
		partKind = fs.String("partitioner", "hash", "partitioner: hash | ring | rendezvous")
		kOver    = fs.Float64("k", 1.2, "bound constant k for the Eq. 10 reference line")
	)
	fs.Parse(args)

	p := core.Params{Nodes: *n, Replication: *d, Items: *m, CacheSize: *c, KOverride: *kOver}
	var dist workload.Distribution
	switch *kind {
	case "adversarial":
		if *x == 0 {
			*x = max(p.BestAdversarialX(), 2)
		}
		dist = workload.NewAdversarial(*m, *x, 0)
	case "uniform":
		dist = workload.NewUniform(*m, *m)
	case "zipf":
		dist = workload.NewZipf(*m, *zipfS)
	default:
		return fmt.Errorf("unknown workload %q", *kind)
	}

	agg, err := sim.Run(sim.Scenario{
		Nodes:       *n,
		Replication: *d,
		CacheSize:   *c,
		Dist:        dist,
		Rate:        *rate,
		Runs:        *runs,
		Seed:        *seed,
		Policy:      cluster.Policy(*policy),
		Partitioner: partition.Kind(*partKind),
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario: n=%d d=%d m=%d c=%d workload=%s rate=%g runs=%d policy=%s partitioner=%s\n",
		*n, *d, *m, *c, *kind, *rate, *runs, *policy, *partKind)
	fmt.Fprintf(w, "  cached fraction of rate : %.4f\n", agg.CachedFraction)
	fmt.Fprintf(w, "  normalized max load     : mean %.4f ± %.4f (95%% CI), max over runs %.4f\n",
		agg.NormMax.Mean(), agg.NormMax.CI95(), agg.MaxOfNormMax())
	fmt.Fprintf(w, "  absolute max load       : mean %.1f qps, max %.1f qps (even share %.1f)\n",
		agg.MaxLoad.Mean(), agg.MaxLoad.Max(), *rate/float64(*n))
	if *kind == "adversarial" && *x > *c && *x >= 2 {
		fmt.Fprintf(w, "  Eq.10 bound (k=%g)      : %.4f\n", *kOver, p.BoundNormalizedMaxLoad(*x))
	}
	verdict := "INEFFECTIVE (gain <= 1)"
	if agg.MaxOfNormMax() > 1 {
		verdict = "EFFECTIVE (gain > 1)"
	}
	fmt.Fprintf(w, "  attack verdict          : %s\n", verdict)
	return nil
}
