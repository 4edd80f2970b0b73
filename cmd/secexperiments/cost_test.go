package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"securecache/internal/partition"
)

// toy is the smoke-test size of every cost baseline: n=4, m=200.
var toy = costConfig{
	Nodes: 4, Replication: 3, Keys: 200,
	Rate: -1, Partitioner: partition.KindHash,
	ValueBytes: 64,
	Frontends:  2, Reads: 2000, Workers: 4,
}

// Each baseline runs once at toy size and must report that its change
// committed, that the post-change sweep found no divergence (a baseline
// returns an error when it does), and that its rate and latency fields
// are populated.

func TestCostRotation(t *testing.T) {
	r, err := costRotation(toy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Moved == 0 {
		t.Fatal("no keys migrated")
	}
	if r.Moved > uint64(r.Keys) {
		t.Fatalf("moved %d keys out of %d", r.Moved, r.Keys)
	}
	if r.KeysPerSecond <= 0 || r.MigrationSeconds <= 0 {
		t.Fatalf("keys_per_second = %v, migration_seconds = %v", r.KeysPerSecond, r.MigrationSeconds)
	}
	if r.BaselineReadMean <= 0 {
		t.Fatalf("baseline_read_micros_mean = %v", r.BaselineReadMean)
	}
	if r.RotationReadCount > 0 && r.RotationReadMean <= 0 {
		t.Fatalf("rotation_read_micros_mean = %v with %d reads", r.RotationReadMean, r.RotationReadCount)
	}
}

func TestCostMembership(t *testing.T) {
	r, err := costMembership(toy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.JoinMoved+r.JoinRetagged == 0 || r.DrainMoved+r.DrainRetagged == 0 {
		t.Fatalf("join touched %d keys, drain %d: a change did not migrate",
			r.JoinMoved+r.JoinRetagged, r.DrainMoved+r.DrainRetagged)
	}
	if r.JoinSeconds <= 0 || r.DrainSeconds <= 0 {
		t.Fatalf("join_seconds = %v, drain_seconds = %v", r.JoinSeconds, r.DrainSeconds)
	}
	if r.BaselineReadMean <= 0 || r.CStarBoot <= 0 || r.CStarAfterJoin <= r.CStarBoot {
		t.Fatalf("baseline read mean %v, c* %d -> %d", r.BaselineReadMean, r.CStarBoot, r.CStarAfterJoin)
	}
	if r.JoinReadCount > 0 && r.JoinReadMean <= 0 {
		t.Fatalf("join_read_micros_mean = %v with %d reads", r.JoinReadMean, r.JoinReadCount)
	}
	if r.Ring == nil || r.Ring.JoinSeconds <= 0 || r.Ring.DrainSeconds <= 0 ||
		r.Ring.JoinMovedFraction <= 0 || r.Ring.JoinMovedFraction > 1 {
		t.Fatalf("ring episode = %+v", r.Ring)
	}
}

func TestCostRepair(t *testing.T) {
	r, err := costRepair(toy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.StaleReads != 0 || r.ResurrectedDels != 0 || r.OutageSetFails != 0 {
		t.Fatalf("stale %d, resurrected %d, outage failures %d", r.StaleReads, r.ResurrectedDels, r.OutageSetFails)
	}
	if r.HintsQueued == 0 || r.HintsPerSecond <= 0 || r.RepairKeys == 0 || r.RepairPerSecond <= 0 {
		t.Fatalf("hints queued %d at %v/s, %d keys repaired at %v/s",
			r.HintsQueued, r.HintsPerSecond, r.RepairKeys, r.RepairPerSecond)
	}
	if r.ConvergedSeconds <= 0 || r.BaselineSetMean <= 0 || r.OutageSetMean <= 0 {
		t.Fatalf("converged %vs, baseline set mean %v, outage set mean %v",
			r.ConvergedSeconds, r.BaselineSetMean, r.OutageSetMean)
	}
}

func TestCostWAL(t *testing.T) {
	r, err := costWAL(toy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.StaleReads != 0 || r.ResurrectedDels != 0 {
		t.Fatalf("stale %d, resurrected %d", r.StaleReads, r.ResurrectedDels)
	}
	if r.Appends == 0 || r.AppendsPerSec <= 0 || r.ReplayedKeys == 0 || r.ReplayKeysPerSec <= 0 {
		t.Fatalf("%d appends at %v/s, %d keys replayed at %v/s",
			r.Appends, r.AppendsPerSec, r.ReplayedKeys, r.ReplayKeysPerSec)
	}
	if r.CrashToServing <= 0 || r.LogBytes <= 0 {
		t.Fatalf("crash_to_serving_seconds = %v, log_bytes = %d", r.CrashToServing, r.LogBytes)
	}
}

func TestCostTier(t *testing.T) {
	r, err := costTier(toy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttackFailures != 0 || r.AttackReads == 0 || r.AttackHotKeys == 0 {
		t.Fatalf("attack: %d reads over %d hot keys, %d failures", r.AttackReads, r.AttackHotKeys, r.AttackFailures)
	}
	if r.SingleReadOps <= 0 || r.TierReadOps <= 0 || r.TierSpeedup <= 0 {
		t.Fatalf("single %v reads/s, tier %v reads/s", r.SingleReadOps, r.TierReadOps)
	}
	if r.AttackFrontNormMax <= 0 || r.AttackBackNormMax <= 0 || r.CacheShare <= 0 {
		t.Fatalf("front norm max %v, back norm max %v, cache share %d",
			r.AttackFrontNormMax, r.AttackBackNormMax, r.CacheShare)
	}
}

// TestCostFlagsAndJSON drives one baseline through the subcommand's
// flag parsing and -json writer.
func TestCostFlagsAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.json")
	if err := runCost([]string{"wal", "-m", "200", "-val", "64", "-baseline", "", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got["keys"] != 200.0 || got["value_bytes"] != 64.0 {
		t.Errorf("report = %v, want keys 200 and value_bytes 64", got)
	}
	if err := runCost([]string{"nosuchbaseline"}, io.Discard); err == nil {
		t.Error("unknown baseline accepted")
	}
}
