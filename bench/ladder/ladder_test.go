package ladder

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"securecache/bench/loadgen"
)

// One traced run: every metric is produced, the spans are written, and
// their counts are the fixed ones a single caller gives.
func TestRunProducesEveryMetricAndTheTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an in-process cluster and replays 20000 ops per rung")
	}
	spec, err := loadgen.SpecByName("write_wal")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res, err := Run(Options{Spec: spec, Seed: 1, Nodes: 3, Replication: 2, KOverride: 1.2, PartitionSeed: 99, OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Metrics {
		if _, ok := res.Values[name]; !ok {
			t.Errorf("no %s", name)
		}
	}
	if len(res.Values) != len(Metrics) {
		t.Errorf("%d values for %d metrics", len(res.Values), len(Metrics))
	}
	for _, name := range []string{"proto.codec_ns", "cache.get_ns", "kvstore.store.set_ns", "wal.append_ns", "kvstore.backend.rtt_ns", "kvstore.client.self_ns"} {
		if res.Values[name] <= 0 {
			t.Errorf("%s = %v", name, res.Values[name])
		}
	}
	blob, err := os.ReadFile(filepath.Join(out, "trace_write_wal.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Names []string
		Spans [][5]int64
	}
	if err := json.Unmarshal(blob, &trace); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range trace.Spans {
		counts[trace.Names[s[0]]]++
		if s[4] < s[3] {
			t.Fatalf("span %v ends before it starts", s)
		}
	}
	for _, name := range []string{"kvstore.client.op", "kvstore.frontend.op", "partition.group", "proto.codec", "proto.read_response"} {
		if counts[name] != Ops {
			t.Errorf("%d %s spans, want %d", counts[name], name, Ops)
		}
	}
	if counts["kvstore.store.get"]+counts["kvstore.store.set"] != Ops || counts["wal.open"] != 1 || counts["wal.sync"] == 0 {
		t.Errorf("span counts %v", counts)
	}
	if _, err := os.Stat(filepath.Join(out, "data")); err == nil {
		if left, _ := os.ReadDir(filepath.Join(out, "data")); len(left) != 0 {
			t.Errorf("%d data directories left behind", len(left))
		}
	}
}
