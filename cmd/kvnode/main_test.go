package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/wal"
)

// runMainEnv marks a child process started by these tests: TestMain runs
// kvnode's main() in it instead of the tests.
const runMainEnv = "KVNODE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logBuffer collects a child's log output; exec copies into it from its
// own goroutine.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// node is a kvnode child process.
type node struct {
	cmd  *exec.Cmd
	log  *logBuffer
	addr string
	done chan error
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// startNode runs kvnode with args and waits until it reports its
// listen address.
func startNode(t *testing.T, args ...string) *node {
	t.Helper()
	n := &node{
		cmd:  exec.Command(os.Args[0], append([]string{"-listen", "127.0.0.1:0"}, args...)...),
		log:  &logBuffer{},
		done: make(chan error, 1),
	}
	// No race-detector exit pause: the exit is what is being timed.
	n.cmd.Env = append(os.Environ(), runMainEnv+"=1", "GORACE=atexit_sleep_ms=0")
	n.cmd.Stderr = n.log
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { n.done <- n.cmd.Wait() }()
	t.Cleanup(func() {
		n.cmd.Process.Kill()
		<-n.done
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listeningRE.FindStringSubmatch(n.log.String()); m != nil {
			n.addr = m[1]
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("kvnode never reported its address; log:\n%s", n.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the exit, failing if it takes longer
// than the benchmark cluster's 2 s grace before it kills a node.
func (n *node) stop(t *testing.T) error {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-n.done:
		n.done <- err // for the cleanup
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("kvnode still running 2s after SIGTERM; log:\n%s", n.log)
		return nil
	}
}

func (n *node) get(t *testing.T, key string) string {
	t.Helper()
	c := kvstore.NewClient(n.addr)
	defer c.Close()
	v, err := c.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return string(v)
}

// TestSIGTERMClosesWALBeforeExit: a durable node stopped by SIGTERM
// exits 0 only after Close has returned — the WAL is closed with its
// final fsync — and its data dir replays the write.
func TestSIGTERMClosesWALBeforeExit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	n := startNode(t, "-id", "7", "-data-dir", dir)
	c := kvstore.NewClient(n.addr)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := n.stop(t); err != nil {
		t.Fatalf("exit after SIGTERM: %v; log:\n%s", err, n.log)
	}
	if !strings.Contains(n.log.String(), "kvnode 7 stopped") {
		t.Fatalf("no post-close line logged; log:\n%s", n.log)
	}

	b := kvstore.NewBackend(7)
	if _, err := b.OpenData(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if v, ok := b.Store().Get("k"); !ok || string(v) != "v" {
		t.Fatalf("data dir after shutdown: %q, %v", v, ok)
	}
}

// v1Snapshot is a one-entry snapshot stream (format v1) holding key=value.
func v1Snapshot(t *testing.T, key, value string) string {
	t.Helper()
	b := []byte{'S', 'C', 'K', 'V', 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, byte(len(key))}
	b = append(b, key...)
	b = append(b, 0, 0, 0, byte(len(value)))
	b = append(b, value...)
	path := filepath.Join(t.TempDir(), key+"-"+value+".snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotImportOnceAtBoot: -snapshot seeds an empty data dir, and
// once the log holds data a later -snapshot is skipped.
func TestSnapshotImportOnceAtBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	n := startNode(t, "-data-dir", dir, "-snapshot", v1Snapshot(t, "k", "first"))
	if got := n.get(t, "k"); got != "first" {
		t.Fatalf("after import: %q, want %q", got, "first")
	}
	if err := n.stop(t); err != nil {
		t.Fatal(err)
	}

	n = startNode(t, "-data-dir", dir, "-snapshot", v1Snapshot(t, "k", "second"))
	if got := n.get(t, "k"); got != "first" {
		t.Fatalf("second boot served %q: the import ran over a replayed WAL", got)
	}
	if !strings.Contains(n.log.String(), "skipping snapshot import") {
		t.Errorf("no skip line logged; log:\n%s", n.log)
	}
	if err := n.stop(t); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNeedsDataDir: an import has nowhere durable to go without
// a data dir, so kvnode refuses the flag combination.
func TestSnapshotNeedsDataDir(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-snapshot", "x.snap")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-snapshot needs -data-dir") {
		t.Errorf("output %q lacks the reason", out)
	}
}
