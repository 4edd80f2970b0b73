package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"securecache/internal/attack"
	"securecache/internal/trace"
)

// runAttack drives the adversary model: it reports the optimal strategy
// for given public parameters, evaluates it empirically against fresh
// random partitions, and can emit the attack trace for replay against a
// live cluster (kvload reads it).
//
//	secexperiments attack -n 1000 -d 3 -m 100000 -c 200          # evaluate best attack
//	secexperiments attack -n 1000 -d 3 -m 100000 -c 200 -sweep   # sweep x (Fig. 3 data)
//	secexperiments attack -n 8 -d 3 -m 1000 -c 16 -emit-trace atk.bin -queries 100000
func runAttack(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("secexperiments attack", flag.ExitOnError)
	var (
		n         = fs.Int("n", 1000, "number of back-end nodes")
		d         = fs.Int("d", 3, "replication factor")
		m         = fs.Int("m", 100000, "number of items stored")
		c         = fs.Int("c", 200, "front-end cache size")
		rate      = fs.Float64("rate", 100000, "attack rate R (qps)")
		runs      = fs.Int("runs", 200, "evaluation runs")
		seed      = fs.Uint64("seed", 2013, "root seed")
		k         = fs.Float64("k", 1.2, "bound constant")
		sweep     = fs.Bool("sweep", false, "sweep x from c+1 to m (Fig. 3 series)")
		emitTrace = fs.String("emit-trace", "", "write the best-attack query trace to this file")
		queries   = fs.Int("queries", 100000, "trace length for -emit-trace")
	)
	fs.Parse(args)

	adv := attack.Adversary{Items: *m, Nodes: *n, Replication: *d, CacheSize: *c, KOverride: *k}
	cfg := attack.EvalConfig{Rate: *rate, Runs: *runs, Seed: *seed}

	p := adv.Params()
	fmt.Fprintf(w, "adversary knowledge: m=%d n=%d d=%d c=%d (k=%g)\n", *m, *n, *d, *c, *k)
	fmt.Fprintf(w, "  provisioning threshold c* = %d\n", p.RequiredCacheSize())
	fmt.Fprintf(w, "  theory-optimal x          = %d\n", adv.BestX())

	switch {
	case *emitTrace != "":
		dist, err := adv.BestDistribution()
		if err != nil {
			return err
		}
		f, err := os.Create(*emitTrace)
		if err != nil {
			return err
		}
		if err := trace.Record(dist, *queries, *seed).Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %d-query attack trace to %s\n", *queries, *emitTrace)
	case *sweep:
		tbl, err := adv.SweepX(sweepPoints(*c+1, *m), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, tbl)
	default:
		res, err := adv.EvaluateBest(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  empirical best x          = %d\n", res.X)
		fmt.Fprintf(w, "  achieved gain             : max %s, mean %s\n", res.MaxGain, res.MeanGain)
	}
	return nil
}

// sweepPoints spaces the x sweep geometrically (×1.5) from lo to hi,
// both included.
func sweepPoints(lo, hi int) []int {
	if lo < 2 {
		lo = 2
	}
	if hi <= lo {
		return []int{hi}
	}
	pts := []int{lo}
	for v := lo; v < hi; {
		v = v * 3 / 2
		if v <= pts[len(pts)-1] {
			v = pts[len(pts)-1] + 1
		}
		if v >= hi {
			break
		}
		pts = append(pts, v)
	}
	return append(pts, hi)
}
