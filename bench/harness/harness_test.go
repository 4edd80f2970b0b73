package harness

import (
	"testing"
	"time"

	"securecache/bench/cluster"
	"securecache/bench/ladder"
	"securecache/bench/loadgen"
	"securecache/bench/report"
)

// BENCHMARK.json and the code agree on the workloads and on every metric
// a run produces.
func TestManifestMatchesTheCode(t *testing.T) {
	m, err := report.LoadManifest("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(loadgen.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(loadgen.Specs))
	}
	for i, w := range m.Workloads {
		if spec := loadgen.Specs[i]; w.Name != spec.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, spec.Name)
		}
	}
	if m.Command[0] != "bash" || m.Command[1] != "bench/run.sh" || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	known := map[string]bool{}
	for _, d := range append(append([]report.Metric(nil), m.EndToEnd...), m.PerLayer...) {
		known[d.Name] = true
	}
	produced := append([]string(nil), ladder.Metrics...)
	r := &run{values: map[string]float64{}}
	r.out.Counts = map[string]int{}
	r.opts.Spec = loadgen.Specs[0]
	r.opts.Log = testWriter{t}
	phase := func() *loadgen.Result {
		return &loadgen.Result{Elapsed: time.Second, Attempted: 1, Samples: []loadgen.Sample{{Lat: 1000}}, Lags: []int64{1}}
	}
	r.endToEnd([]*loadgen.Result{phase(), phase()}, time.Millisecond, 1)
	r.scraped(counters(), counters(), &clientHooks{})
	if err := r.walChecks(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.values["setup_s"], r.values["loadgen.build_s"] = 1, 1
	for name := range r.values {
		produced = append(produced, name)
	}
	got := map[string]bool{}
	for _, name := range produced {
		got[name] = true
		if !known[name] {
			t.Errorf("the code produces %s, BENCHMARK.json does not list it", name)
		}
	}
	for name := range known {
		if !got[name] {
			t.Errorf("BENCHMARK.json lists %s, the code does not produce it", name)
		}
	}
}

func counters() cluster.Counters {
	return cluster.Counters{Front: map[string]float64{}, Nodes: []map[string]float64{{}, {}, {}}}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

// A configuration that wants more processors than the host has is
// refused, not measured.
func TestCheckProcs(t *testing.T) {
	if err := CheckProcs(map[string]int{"kvfront": 2, "kvnode": 1}, 2); err != nil {
		t.Error(err)
	}
	if err := CheckProcs(map[string]int{"kvfront": 4, "kvnode": 1}, 2); err == nil {
		t.Error("GOMAXPROCS=4 on 2 CPUs passed")
	}
	if err := CheckProcs(Procs(), 1); Procs()["kvfront"] > 1 && err == nil {
		t.Error("this host's configuration passed on 1 CPU")
	}
}

func TestPhases(t *testing.T) {
	open, closed, _ := phases(loadgen.Specs[0], 16)
	if open != 10*time.Second || closed != 6*time.Second {
		t.Errorf("16 s: open %v, closed %v", open, closed)
	}
	open, closed, _ = phases(loadgen.Specs[3], 16)
	if !loadgen.Specs[3].Serial || open != 0 || closed != 16*time.Second {
		t.Errorf("serial: open %v, closed %v", open, closed)
	}
}
