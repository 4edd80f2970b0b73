package cluster_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"securecache/bench/cluster"
	"securecache/bench/harness"
	"securecache/internal/kvstore"
)

// The processes are real: built from the repository, started on free
// ports, measured from outside, crashed, restarted, and gone afterwards.
func TestClusterLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kvfront and kvnode")
	}
	bin, out := t.TempDir(), t.TempDir()
	if _, err := harness.Build("../..", bin, io.Discard); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		BinDir: bin, OutDir: out, Name: "test", Nodes: 3, Replication: 2, PartitionSeed: 5,
		CacheSize: 16, Items: 100, KOverride: 1.2, WAL: true, FrontProcs: 1, NodeProcs: 1, BackendConns: 4,
	}
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()

	front := kvstore.NewClient(cl.FrontAddr())
	defer front.Close()
	if err := front.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := front.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	counters, err := cl.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	if counters.Front["sets_total"] != 1 || len(counters.Nodes) != 3 {
		t.Errorf("scrape: %v", counters)
	}
	var written float64
	for _, n := range counters.Nodes {
		written += n["sets_total"]
	}
	if written != 2 {
		t.Errorf("%v replica writes for one SET at d = 2", written)
	}
	if rss, err := cl.RSSMiB(); err != nil || rss <= 0 {
		t.Errorf("RSSMiB = %v, %v", rss, err)
	}
	if _, err := cl.CPU(); err != nil {
		t.Error(err)
	}
	if disk, err := cl.WALBytes(); err != nil || disk <= 0 {
		t.Errorf("WALBytes = %v, %v", disk, err)
	}

	// A crashed node comes back on the same address with its data.
	holder := -1
	for i := 0; i < cfg.Nodes && holder < 0; i++ {
		node := kvstore.NewClient(cl.NodeAddr(i))
		if _, err := node.Get("k"); err == nil {
			holder = i
		}
		node.Close()
	}
	if holder < 0 {
		t.Fatal("no node holds the key")
	}
	if err := cl.CrashNode(holder); err != nil {
		t.Fatal(err)
	}
	if err := cl.Alive(); err != nil {
		t.Errorf("a node the benchmark crashed counts as died early: %v", err)
	}
	if _, err := cl.RestartNode(holder); err != nil {
		t.Fatal(err)
	}
	node := kvstore.NewClient(cl.NodeAddr(holder))
	defer node.Close()
	if v, err := node.Get("k"); err != nil || string(v) != "v" {
		t.Errorf("after kill -9 and restart: Get = %q, %v", v, err)
	}

	stopped = true
	if err := cl.Stop(); err != nil {
		t.Errorf("Stop: %v", err)
	}
	logs, _ := filepath.Glob(filepath.Join(out, "logs", "test-*.log"))
	if len(logs) != 4 {
		t.Errorf("logs: %v", logs)
	}
	if left, _ := os.ReadDir(filepath.Join(out, "data")); len(left) != 0 {
		t.Errorf("%d data directories left behind", len(left))
	}
}

// A child that dies on its own fails the run.
func TestDiedEarlyIsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kvfront and kvnode")
	}
	bin, out := t.TempDir(), t.TempDir()
	if _, err := harness.Build("../..", bin, io.Discard); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Start(cluster.Config{
		BinDir: bin, OutDir: out, Name: "test", Nodes: 2, Replication: 2, PartitionSeed: 5,
		CacheSize: 16, Items: 100, KOverride: 1.2, FrontProcs: 1, NodeProcs: 1, BackendConns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(out, "logs", "test-kvnode1.log"))
	if err != nil || !strings.Contains(string(blob), "kvnode 1 listening") {
		t.Fatalf("log of kvnode1: %q, %v", blob, err)
	}
	// Somebody else kills the process group of kvnode1.
	pgid, err := syscall.Getpgid(cl.NodePid(1))
	if err != nil || pgid != cl.NodePid(1) {
		t.Fatalf("kvnode1 is not the leader of its own process group: pgid %d, %v", pgid, err)
	}
	syscall.Kill(-pgid, syscall.SIGKILL)
	for deadline := time.Now().Add(5 * time.Second); cl.Alive() == nil && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	err = cl.Stop()
	if err == nil || !strings.Contains(err.Error(), "kvnode1 died early") {
		t.Errorf("Stop = %v, want kvnode1 died early", err)
	}
}
