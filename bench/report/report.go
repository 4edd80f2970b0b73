// Package report defines what the benchmark prints: the metric tables
// of BENCHMARK.json, the result line of one run, the environment
// envelope, and the summary of a full run that -compare and -repeat
// work on.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end
// metric may get worse; per-layer metrics have none.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadManifest reads BENCHMARK.json from the repository root. Unknown
// keys are an error: the file has exactly the keys above.
func LoadManifest(root string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("report: BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// Value is a measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line of a run's standard output.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Select returns the values of the metrics in defs, in a map for Line.
// A metric the run did not produce is an error: every run prints every
// metric of its kind.
func Select(defs []Metric, values map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("report: run produced no %s", d.Name)
		}
		out[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// Envelope says where and how a result was measured. A number without
// it does not count (ROADMAP open item 1a).
type Envelope struct {
	NumCPU       int            `json:"num_cpu"`
	GOMAXPROCS   map[string]int `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"git_commit"`
	Dirty        bool           `json:"git_dirty"`
	Kernel       string         `json:"kernel"`
	Transport    string         `json:"transport"`
	ProcessModel string         `json:"process_model"`
	Seed         uint64         `json:"seed"`
	OpenRates    map[string]int `json:"open_rates_ops_s"`
	FlushPolicy  string         `json:"flush_policy"`
}

// FlushPolicy is the WAL flush policy of the write_wal workload: kvnode's
// default, stated because durability results mean nothing without it.
const FlushPolicy = "background fsync every 500ms (kvnode default); kill -9 keeps the OS page cache, so the crash check covers replay, not power loss"

// NewEnvelope fills in what the host can tell; the caller adds the
// seed, rates and GOMAXPROCS settings.
func NewEnvelope(root string) Envelope {
	env := Envelope{
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		Kernel:       "unknown",
		Transport:    "loopback",
		ProcessModel: "out-of-process",
		FlushPolicy:  FlushPolicy,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest answer.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			env.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

// Check is one correctness or validity check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Run is everything one run of one workload measured.
type Run struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Counts    map[string]int     `json:"sample_counts"`
	Checks    []Check            `json:"checks"`
	Notes     []string           `json:"notes,omitempty"`
}

// Spread is the values of one metric over the repeats of a summary.
type Spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// NewSpread summarises values; with fewer than two the quartiles are
// the value itself.
func NewSpread(unit string, values []float64) Spread {
	s := Spread{Unit: unit, Values: values}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	switch n := len(sorted); {
	case n == 0:
	case n == 1:
		s.Median, s.Q1, s.Q3 = sorted[0], sorted[0], sorted[0]
	default:
		// The exclusive method of Python's statistics.quantiles(n=4),
		// which the driver uses for its spreads.
		at := func(i int) float64 {
			j := i * (n + 1) / 4
			if j < 1 {
				j = 1
			}
			if j > n-1 {
				j = n - 1
			}
			delta := float64(i*(n+1) - j*4)
			return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
		}
		s.Q1, s.Median, s.Q3 = at(1), at(2), at(3)
	}
	return s
}

// WorkloadSummary is one workload's share of a Summary.
type WorkloadSummary struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	EndToEnd  map[string]Spread `json:"end_to_end"`
	PerLayer  map[string]Spread `json:"per_layer"`
	Runs      []Run             `json:"runs"`
}

// Summary is the output of a full run (every workload, untraced then
// traced, possibly repeated). The benchmark claims no gain, so Claim is
// always null; it is the last key by construction.
type Summary struct {
	Env       Envelope          `json:"env"`
	Repeat    int               `json:"repeat"`
	Workloads []WorkloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// Summarise folds the runs of a full run into a Summary. End-to-end
// values come from untraced runs, per-layer values from traced runs.
func Summarise(env Envelope, m *Manifest, repeat int, runs []Run) *Summary {
	sum := &Summary{Env: env, Repeat: repeat}
	for _, w := range m.Workloads {
		ws := WorkloadSummary{Name: w.Name, Correct: true, Valid: true,
			EndToEnd: map[string]Spread{}, PerLayer: map[string]Spread{}}
		collect := func(defs []Metric, trace bool, into map[string]Spread) {
			for _, d := range defs {
				var vs []float64
				for _, r := range ws.Runs {
					if v, ok := r.Values[d.Name]; ok && r.Trace == trace {
						vs = append(vs, v)
					}
				}
				if len(vs) > 0 {
					into[d.Name] = NewSpread(d.Unit, vs)
				}
			}
		}
		for _, r := range runs {
			if r.Workload != w.Name {
				continue
			}
			ws.Runs = append(ws.Runs, r)
			ws.Correct = ws.Correct && r.Correct
			ws.Valid = ws.Valid && r.Valid
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
		}
		if len(ws.Runs) == 0 {
			continue
		}
		if ws.Attempted > 0 {
			ws.FailFrac = float64(ws.Failed) / float64(ws.Attempted)
		}
		collect(m.EndToEnd, false, ws.EndToEnd)
		collect(m.PerLayer, true, ws.PerLayer)
		sum.Workloads = append(sum.Workloads, ws)
	}
	return sum
}

// LoadSummary reads a summary file written by a full run.
func LoadSummary(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &s, nil
}

// Worse returns by what share of a the value b is worse than a, given
// the metric's direction; negative when b is better.
func Worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// Compare prints, per workload and end-to-end metric, both medians,
// their relative difference and the bound, and reports whether B stays
// within every bound without a higher fail_frac.
func Compare(w io.Writer, m *Manifest, a, b *Summary) (ok bool) {
	ok = true
	byName := map[string]WorkloadSummary{}
	for _, ws := range b.Workloads {
		byName[ws.Name] = ws
	}
	fmt.Fprintf(w, "%-11s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			fmt.Fprintf(w, "%-11s missing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, d := range m.EndToEnd {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-11s %-14s missing\n", wa.Name, d.Name)
				ok = false
				continue
			}
			worse, bound, verdict := Worse(d.Better, sa.Median, sb.Median), 0.0, ""
			if d.Bound != nil {
				bound = *d.Bound
			}
			if worse > bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-11s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wa.Name, d.Name, sa.Median, sb.Median, 100*worse, 100*bound, verdict)
		}
		verdict := ""
		if wb.FailFrac > wa.FailFrac {
			verdict = "  ROSE"
			ok = false
		}
		fmt.Fprintf(w, "%-11s %-14s %14.6f %14.6f%s\n", wa.Name, "fail_frac", wa.FailFrac, wb.FailFrac, verdict)
		if !wb.Correct {
			fmt.Fprintf(w, "%-11s B failed a correctness check\n", wa.Name)
			ok = false
		}
	}
	return ok
}

// PrintSummary prints every metric of a summary by name with its unit:
// the value, or the median and quartiles over the repeats.
func PrintSummary(w io.Writer, m *Manifest, s *Summary) {
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "== %s: correct=%v valid=%v attempted=%d failed=%d fail_frac=%g\n",
			ws.Name, ws.Correct, ws.Valid, ws.Attempted, ws.Failed, ws.FailFrac)
		for _, part := range []struct {
			defs   []Metric
			values map[string]Spread
		}{{m.EndToEnd, ws.EndToEnd}, {m.PerLayer, ws.PerLayer}} {
			for _, d := range part.defs {
				sp, ok := part.values[d.Name]
				if !ok {
					continue
				}
				if s.Repeat > 1 {
					fmt.Fprintf(w, "%-11s %-34s median %14.4f  q1 %14.4f  q3 %14.4f %s\n", ws.Name, d.Name, sp.Median, sp.Q1, sp.Q3, sp.Unit)
				} else {
					fmt.Fprintf(w, "%-11s %-34s %14.4f %s\n", ws.Name, d.Name, sp.Median, sp.Unit)
				}
			}
		}
	}
}
