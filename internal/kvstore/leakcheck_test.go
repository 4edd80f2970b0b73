package kvstore

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkGoroutineLeaks snapshots the goroutine count when called and, at
// test cleanup, asserts the count returns to that level (with retries,
// since conn teardown is asynchronous). It keeps probe loops, handler
// goroutines, and shed paths from regressing silently: every Close must
// actually reap what Serve spawned.
//
// Not safe for t.Parallel() tests — the count is process-global.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after cleanup\n%s", before, now, shortenStacks(string(buf[:n])))
	})
}

// shortenStacks keeps leak reports readable: first line of each stack.
func shortenStacks(s string) string {
	var out []string
	for _, block := range strings.Split(s, "\n\n") {
		lines := strings.SplitN(block, "\n", 3)
		if len(lines) >= 2 {
			out = append(out, lines[0]+" | "+strings.TrimSpace(lines[1]))
		}
	}
	return strings.Join(out, "\n")
}

// TestCloseLeavesNoGoroutines drives real traffic through a full
// cluster — including the probe loop (one backend is killed so the
// breaker opens and probing starts) — then closes everything, with an
// upgraded (pipelined) connection still open on each role so the worker
// pools and flushers are among what Close must reap, and asserts the
// process returns to its pre-cluster goroutine count.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes: 3, Replication: 2, PartitionSeed: 21,
		Client: ClientConfig{MaxRetries: -1, RetryBackoff: time.Millisecond},
		Health: HealthConfig{FailureThreshold: 2, ProbeInterval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(lc.FrontendAddr)
	for i := 0; i < 20; i++ {
		if err := c.Set(testKeyName(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one backend and keep reading so the breaker opens and the
	// probe loop has real work when the cluster shuts down.
	lc.Backends[0].Close()
	for i := 0; i < 20; i++ {
		c.Get(testKeyName(i))
	}
	c.Close()
	for _, addr := range []string{lc.FrontendAddr, lc.BackendAddrs[1]} {
		pc := NewClientWithConfig(addr, ClientConfig{PipelineDepth: 8, MaxRetries: -1})
		defer pc.Close()
		if err := pc.Ping(); err != nil {
			t.Fatalf("pipelined ping %s: %v", addr, err)
		}
	}
	lc.Close()
}

// testKeyName mirrors workload.KeyName without importing it (avoids a
// package cycle risk in test-only code).
func testKeyName(i int) string { return "key-" + string(rune('a'+i%26)) + "-" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
