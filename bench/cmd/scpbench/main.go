// Command scpbench is the repository's benchmark: an out-of-process,
// open-loop benchmark of the cache-fronted replicated store, with a
// per-layer traced run. See bench/README.md.
//
//	scpbench -workload W -seed N -seconds S -trace 0|1   one run (the driver's form)
//	scpbench -seed N [-repeat K]                          every workload, untraced then traced
//	scpbench -compare A.json B.json                       compare two summaries
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"securecache/bench/harness"
	"securecache/bench/loadgen"
	"securecache/bench/report"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and print the driver's result line (default: all workloads, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "workload seed: the key stream, the arrival schedule and the cluster's secret partition seed all derive from it")
		seconds  = flag.Int("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = also do the traced run and print the per-layer metrics instead of the end-to-end ones")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and print median and quartiles per metric")
		compare  = flag.Bool("compare", false, "compare two summary files given as arguments; exit 1 if the second is worse than a bound allows")
		out      = flag.String("out", "", "summary file of a full run (default bench/out/summary.json)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *repeat, *compare, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "scpbench:", err)
		os.Exit(1)
	}
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds the benchmark and the servers.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "bench", "go.mod")) && isFile(filepath.Join(dir, "cmd", "kvfront", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository (no bench/go.mod beside cmd/kvfront above the working directory)")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

var errWorse = errors.New("B is worse than A by more than a bound allows")

func run(workload string, seed uint64, seconds, trace, repeat int, compare bool, out string, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	manifest, err := report.LoadManifest(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two summary files")
		}
		a, err := report.LoadSummary(args[0])
		if err != nil {
			return err
		}
		b, err := report.LoadSummary(args[1])
		if err != nil {
			return err
		}
		if !report.Compare(os.Stdout, manifest, a, b) {
			return errWorse
		}
		return nil
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds == 0 {
		seconds = manifest.RunSeconds
	}
	if seconds < 1 || repeat < 1 {
		return errors.New("-seconds and -repeat must be positive")
	}

	outDir := filepath.Join(root, "bench", "out")
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Children die with this process (Pdeathsig); a signal only has to
	// end it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "scpbench: interrupted")
		os.Exit(130)
	}()

	built, err := harness.Build(root, binDir, os.Stderr)
	if err != nil {
		return err
	}
	env := report.NewEnvelope(root)
	env.Seed, env.GOMAXPROCS, env.OpenRates = seed, harness.Procs(), map[string]int{}
	for _, s := range loadgen.Specs {
		env.OpenRates[s.Name] = int(s.OpenRate)
	}
	one := func(spec loadgen.Spec, trace bool) (*report.Run, error) {
		return harness.Run(harness.Options{
			BinDir: binDir, OutDir: outDir, Spec: spec, Seed: seed, Seconds: seconds,
			Trace: trace, BuildS: built.Seconds(), Log: os.Stderr,
		})
	}

	if workload != "" {
		spec, err := loadgen.SpecByName(workload)
		if err != nil {
			return err
		}
		r, err := one(spec, trace == 1)
		if err != nil {
			return err
		}
		return printLine(manifest, env, r, outDir)
	}

	var runs []report.Run
	for k := 0; k < repeat; k++ {
		for _, traced := range []bool{false, true} {
			for _, spec := range loadgen.Specs {
				r, err := one(spec, traced)
				if err != nil {
					return err
				}
				runs = append(runs, *r)
			}
		}
	}
	sum := report.Summarise(env, manifest, repeat, runs)
	if out == "" {
		out = filepath.Join(outDir, "summary.json")
	}
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	report.PrintSummary(os.Stdout, manifest, sum)
	fmt.Printf("summary written to %s\n", out)
	for _, ws := range sum.Workloads {
		if !ws.Correct || ws.Failed > 0 {
			return fmt.Errorf("workload %s: correct=%v, %d of %d operations failed", ws.Name, ws.Correct, ws.Failed, ws.Attempted)
		}
	}
	return nil
}

// printLine prints one run: every metric by name with its unit, the
// checks, and — as the last line of standard output — the result object
// the driver reads. The full record goes to bench/out.
func printLine(m *report.Manifest, env report.Envelope, r *report.Run, outDir string) error {
	defs := m.EndToEnd
	if r.Trace {
		defs = m.PerLayer
	}
	metrics, err := report.Select(defs, r.Values)
	if err != nil {
		return err
	}
	record := struct {
		Env report.Envelope `json:"env"`
		Run *report.Run     `json:"run"`
	}{env, r}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if r.Trace {
		traced = 1
	}
	path := filepath.Join(outDir, fmt.Sprintf("run_%s_trace%d.json", r.Workload, traced))
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("%-11s %-34s %14.4f %s\n", r.Workload, d.Name, r.Values[d.Name], d.Unit)
	}
	for _, c := range r.Checks {
		fmt.Printf("%-11s check %-40s ok=%v  %s\n", r.Workload, c.Name, c.OK, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Printf("%-11s note  %s\n", r.Workload, n)
	}
	fmt.Printf("%-11s valid=%v; full record in %s\n", r.Workload, r.Valid, path)
	line, err := json.Marshal(report.Line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
