package main

import (
	"os"
	"path/filepath"
	"testing"

	"securecache/internal/trace"
	"securecache/internal/workload"
)

func TestSplitNonEmpty(t *testing.T) {
	cases := map[string][]string{
		"":          nil,
		"a":         {"a"},
		"a,b,c":     {"a", "b", "c"},
		" a , ,b, ": {"a", "b"},
	}
	for in, want := range cases {
		got := splitNonEmpty(in)
		if len(got) != len(want) {
			t.Errorf("splitNonEmpty(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitNonEmpty(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestBuildKeysWorkloads(t *testing.T) {
	for _, kind := range []string{"adversarial", "uniform", "zipf"} {
		keys, err := buildKeys("", kind, 100, 0, 1.01, 500, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(keys) != 500 {
			t.Fatalf("%s: %d keys", kind, len(keys))
		}
		for _, k := range keys {
			if k < 0 || k >= 100 {
				t.Fatalf("%s: key %d out of range", kind, k)
			}
		}
	}
	if _, err := buildKeys("", "bogus", 100, 0, 1, 10, 1); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestBuildKeysFromTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	tr := trace.Record(workload.NewUniform(50, 50), 200, 3)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	keys, err := buildKeys(path, "ignored", 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 200 {
		t.Fatalf("replayed %d keys, want 200", len(keys))
	}
	if _, err := buildKeys(filepath.Join(dir, "absent.bin"), "", 0, 0, 0, 0, 0); err == nil {
		t.Error("missing trace accepted")
	}
}

func TestBuildKeysAdversarialDefaultX(t *testing.T) {
	keys, err := buildKeys("", "adversarial", 1000, 0, 0, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Default x = m/10 + 1 = 101 distinct keys.
	seen := map[int]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if len(seen) > 101 {
		t.Errorf("adversarial default queried %d distinct keys, want <= 101", len(seen))
	}
}

// TestRequestDeltasSkipsMissingSamples: a node whose stats fetch failed
// before or after the run, or whose counter went backwards, is skipped
// instead of reporting an underflowed delta.
func TestRequestDeltasSkipsMissingSamples(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	before := map[string]uint64{"a": 10, "c": 5, "d": 50}
	after := map[string]uint64{"a": 30, "b": 7, "d": 20}
	rows := requestDeltas(nodes, func(i int) string { return nodes[i] }, before, after)
	want := []nodeDelta{{"a", 20, true}, {"b", 0, false}, {"c", 0, false}, {"d", 0, false}}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("node %s: got %+v, want %+v", nodes[i], rows[i], w)
		}
	}
	if total := printDeltas("backend", rows); total != 20 {
		t.Errorf("total over the nodes with a delta = %d, want 20", total)
	}
}
