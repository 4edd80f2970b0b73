// Command secexperiments runs everything offline. Its default mode
// regenerates the paper's evaluation: one table per figure (3a, 3b, 4,
// 5a, 5b) plus the ablations, printed as aligned text or written as CSV
// files. Three subcommands carry the rest:
//
//	secexperiments                       # all figures, paper-size, text
//	secexperiments -fig 3a               # one figure
//	secexperiments -small                # scaled-down (fast) parameters
//	secexperiments -csv results/         # write CSVs instead of text
//	secexperiments -fig ablations        # replication/policy/partitioner/cache ablations
//	secexperiments -fig disttier         # two-layer frontend-tier experiment
//
//	secexperiments sim -n 1000 -d 3 -m 100000 -c 200 -workload adversarial
//	secexperiments attack -n 1000 -d 3 -m 100000 -c 200 [-sweep | -emit-trace FILE]
//	secexperiments cost rotation|membership|repair|wal|tier [-json FILE]
//
// sim runs one simulation scenario, attack drives the Theorem 1
// adversary, and cost measures what the live machinery costs on an
// in-process cluster (the BENCH_*.json baselines EXPERIMENTS.md records).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"securecache/internal/experiments"
	"securecache/internal/sim"
)

// subcommands maps each subcommand to its runner; its report goes to w.
var subcommands = map[string]func(args []string, w io.Writer) error{
	"sim":    runSim,
	"attack": runAttack,
	"cost":   runCost,
}

type figure struct {
	name string
	run  func(experiments.Config) (*sim.Table, error)
	// labels optionally maps the first column's integer values to names.
	labels []string
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "secexperiments %s: %v\n", os.Args[1], err)
				os.Exit(2)
			}
			return
		}
	}
	var (
		figFlag = flag.String("fig", "all", "which figure: 3a | 3b | 4 | 5a | 5b | disttier | critical | ablations | all")
		small   = flag.Bool("small", false, "use scaled-down parameters (fast)")
		csvDir  = flag.String("csv", "", "write CSV files into this directory instead of printing text")
		runs    = flag.Int("runs", 0, "override runs per point (0 = config default)")
		seed    = flag.Uint64("seed", 0, "override root seed (0 = config default)")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *small {
		cfg = experiments.Small()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	figures := []figure{
		{name: "fig3a", run: experiments.Fig3a},
		{name: "fig3b", run: experiments.Fig3b},
		{name: "fig4", run: experiments.Fig4},
		{name: "fig5a", run: experiments.Fig5a},
		{name: "fig5b", run: experiments.Fig5b},
	}
	ablations := []figure{
		{name: "ablation_replication", run: func(c experiments.Config) (*sim.Table, error) {
			return experiments.ReplicationSweep(c, nil)
		}},
		{name: "ablation_policy", run: experiments.PolicyAblation, labels: experiments.PolicyNames},
		{name: "ablation_partitioner", run: experiments.PartitionerAblation, labels: experiments.PartitionerNames},
		{name: "ablation_cachepolicy", run: func(c experiments.Config) (*sim.Table, error) {
			return experiments.CachePolicyAblation(c, 200000)
		}, labels: experiments.CachePolicyNames},
		{name: "latency_under_attack", run: func(c experiments.Config) (*sim.Table, error) {
			return experiments.LatencyUnderAttack(c, 10)
		}, labels: experiments.LatencyScenarioNames},
		{name: "baseline_comparison", run: func(c experiments.Config) (*sim.Table, error) {
			return experiments.ReplicationBenefit(c, nil)
		}},
		{name: "ablation_adaptive", run: func(c experiments.Config) (*sim.Table, error) {
			return experiments.AdaptiveAttackAblation(c, 200000)
		}, labels: experiments.AdaptiveAttackNames},
		{name: "disttier", run: experiments.TwoLayer},
	}

	var selected []figure
	switch strings.ToLower(*figFlag) {
	case "all":
		selected = append(append(selected, figures...), ablations...)
	case "ablations":
		selected = ablations
	case "3a":
		selected = figures[0:1]
	case "3b":
		selected = figures[1:2]
	case "4":
		selected = figures[2:3]
	case "5a":
		selected = figures[3:4]
	case "5b":
		selected = figures[4:5]
	case "disttier":
		selected = []figure{{name: "disttier", run: experiments.TwoLayer}}
	case "critical":
		runCritical(cfg)
		return
	case "calibrate":
		runCalibrate(cfg)
		return
	default:
		fmt.Fprintf(os.Stderr, "secexperiments: unknown figure %q\n", *figFlag)
		os.Exit(2)
	}

	for _, f := range selected {
		start := time.Now()
		tbl, err := f.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secexperiments: %s: %v\n", f.name, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f.name, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "secexperiments: %s: %v\n", f.name, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s.csv (%s)\n", f.name, time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Print(tbl)
		if len(f.labels) > 0 {
			fmt.Printf("  (first column indexes: %s)\n", strings.Join(f.labels, ", "))
		}
		fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	}
}

func runCalibrate(cfg experiments.Config) {
	// Fit the Eq. 8 constant k the way the paper did before fixing 1.2:
	// measure the realized balls-into-bins gap in the heavily loaded
	// regime.
	res, err := experiments.FitK(cfg.Nodes, cfg.Replication, 100, cfg.Runs, cfg.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secexperiments:", err)
		os.Exit(1)
	}
	fmt.Printf("calibrating k for n=%d d=%d (100 balls/bin, %d runs):\n", cfg.Nodes, cfg.Replication, cfg.Runs)
	fmt.Printf("  theory gap lnln(n)/ln(d) : %.4f\n", res.GapTheory)
	fmt.Printf("  observed gap (mean/max)  : %.4f / %.4f\n", res.GapMeanObserved, res.GapMaxObserved)
	fmt.Printf("  fitted k (mean/max stat) : %.4f / %.4f   (paper uses k=%g)\n", res.KFitMean, res.KFitMax, cfg.K)
}

func runCritical(cfg experiments.Config) {
	empirical, analytic, err := experiments.CriticalPoint(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secexperiments:", err)
		os.Exit(1)
	}
	fmt.Printf("critical cache size: empirical=%d analytic c*=%d (n=%d d=%d k=%g)\n",
		empirical, analytic, cfg.Nodes, cfg.Replication, cfg.K)
}

func writeCSV(dir, name string, tbl *sim.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := tbl.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
