package report

import (
	"regexp"
	"strings"
	"testing"
)

func manifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := LoadManifest("../..")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The output schema the driver's contract fixes.
func TestManifestSchema(t *testing.T) {
	m := manifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: every end-to-end metric has a bound in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// Every run, with its set-up, and two builds fit the driver's budget.
	if runs := 4 + 22*len(m.Workloads); runs*35+2*60 > 3420 {
		t.Errorf("%d runs of about 35 s do not fit 3420 s", runs)
	}
}

func TestSelectNeedsEveryMetric(t *testing.T) {
	defs := []Metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	got, err := Select(defs, map[string]float64{"a": 1, "b": 2, "c": 3})
	if err != nil || len(got) != 2 || got["b"] != (Value{2, "ms"}) {
		t.Fatalf("Select = %v, %v", got, err)
	}
	if _, err := Select(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric passed")
	}
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them.
func TestSpreadMatchesPython(t *testing.T) {
	s := NewSpread("s", []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	s = NewSpread("s", []float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v", s.Q1, s.Median, s.Q3)
	}
}

func summaryOf(latency, peak, failFrac float64) *Summary {
	return &Summary{Workloads: []WorkloadSummary{{
		Name: "w", Correct: true, FailFrac: failFrac,
		EndToEnd: map[string]Spread{
			"latency_us": NewSpread("us", []float64{latency}),
			"peak_ops_s": NewSpread("1/s", []float64{peak}),
		},
	}}}
}

func TestCompare(t *testing.T) {
	tenth := 0.10
	m := &Manifest{EndToEnd: []Metric{
		{Name: "latency_us", Unit: "us", Better: "lower", Bound: &tenth},
		{Name: "peak_ops_s", Unit: "1/s", Better: "higher", Bound: &tenth},
	}}
	base := summaryOf(100, 1000, 0)
	for _, c := range []struct {
		name string
		b    *Summary
		ok   bool
	}{
		{"same", summaryOf(100, 1000, 0), true},
		{"within bounds", summaryOf(109, 910, 0), true},
		{"better", summaryOf(50, 2000, 0), true},
		{"latency worse", summaryOf(111, 1000, 0), false},
		{"throughput worse", summaryOf(100, 890, 0), false},
		{"failures rose", summaryOf(100, 1000, 0.001), false},
		{"workload missing", &Summary{}, false},
	} {
		var out strings.Builder
		if got := Compare(&out, m, base, c.b); got != c.ok {
			t.Errorf("%s: Compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
}

func TestSummaryEndsWithANullClaim(t *testing.T) {
	m := manifest(t)
	runs := []Run{
		{Workload: m.Workloads[0].Name, Correct: true, Valid: true, Attempted: 10, Values: map[string]float64{"setup_s": 1}},
		{Workload: m.Workloads[0].Name, Trace: true, Correct: true, Valid: true, Attempted: 10, Failed: 1, Values: map[string]float64{"fail_frac": 0.1}},
	}
	s := Summarise(Envelope{}, m, 1, runs)
	if len(s.Workloads) != 1 || s.Workloads[0].FailFrac != 0.05 || s.Claim != nil {
		t.Fatalf("summary = %+v", s)
	}
	if got := s.Workloads[0].EndToEnd["setup_s"].Median; got != 1 {
		t.Errorf("setup_s = %v", got)
	}
	if _, ok := s.Workloads[0].PerLayer["fail_frac"]; !ok {
		t.Error("per-layer value of the traced run is missing")
	}
}
