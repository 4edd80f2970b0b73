package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/overload"
)

// startShedder boots a backend that sheds every data request: its rate
// limiter's one burst token is spent before it is returned.
func startShedder(t *testing.T, id int) string {
	t.Helper()
	b, addr, err := StartBackendWithLimits(id, "127.0.0.1:0",
		overload.Limits{RateLimit: 0.001, RateBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := NewClientWithConfig(addr, ClientConfig{MaxRetries: -1})
	defer c.Close()
	c.Get("burn-the-burst-token")
	if _, err := c.Get("k"); !errors.Is(err, ErrBusy) {
		t.Fatalf("shedder answered %v, want ErrBusy", err)
	}
	return addr
}

// TestWriteBusyRulePerVerb pins when a below-quorum write reports
// ErrBusy. Set and Del are busy whenever every failure was a shed. Cas is
// busy only when its swap reached no replica: TierClient.Cas replays a
// busy swap through another frontend, which must never apply it twice.
func TestWriteBusyRulePerVerb(t *testing.T) {
	verbs := []struct {
		name string
		call func(f *Frontend, key string) error
	}{
		{"set", func(f *Frontend, key string) error { return f.Set(key, []byte("v")) }},
		{"del", func(f *Frontend, key string) error { return f.Del(key) }},
		{"cas", func(f *Frontend, key string) error { _, err := f.Cas(key, []byte("v"), 0); return err }},
	}
	cases := []struct {
		name     string
		applies  bool // replica 0 is a healthy backend, not a shedder
		wantBusy map[string]bool
	}{
		{"all shed", false, map[string]bool{"set": true, "del": true, "cas": true}},
		{"one applies one sheds", true, map[string]bool{"set": true, "del": true, "cas": false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutineLeaks(t)
			first := ""
			if tc.applies {
				b, addr, err := StartBackend(0, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				first = addr
			} else {
				first = startShedder(t, 0)
			}
			f, err := NewFrontend(FrontendConfig{
				BackendAddrs: []string{first, startShedder(t, 1)},
				Replication:  2, PartitionSeed: 5, // W = 2
				Client:         ClientConfig{MaxRetries: -1},
				Health:         HealthConfig{ProbeInterval: time.Hour},
				RepairInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for _, v := range verbs {
				err := v.call(f, "busy-"+v.name)
				if err == nil {
					t.Fatalf("%s met quorum with a shedding replica", v.name)
				}
				if got := errors.Is(err, ErrBusy); got != tc.wantBusy[v.name] {
					t.Errorf("%s: errors.Is(err, ErrBusy) = %v, want %v (err: %v)", v.name, got, tc.wantBusy[v.name], err)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("kvstore: %s %q: ", v.name, "busy-"+v.name)) {
					t.Errorf("%s: error text %q lacks the verb prefix", v.name, err)
				}
			}
		})
	}
}

// TestCasOutcomesUnderDivergence seeds replicas directly into divergent
// states and pins each arm of CAS's three-valued outcome.
func TestCasOutcomesUnderDivergence(t *testing.T) {
	// seed stores key at the given versions, one per group member in
	// group order, behind the frontend's back.
	seed := func(lc *LocalCluster, key string, vers ...uint64) {
		for i, node := range lc.Frontend.Group(key) {
			lc.Backends[node].Store().SetVersioned(key, []byte(fmt.Sprintf("v%d", vers[i])), 0, vers[i])
		}
	}
	var conflict *CasConflictError

	t.Run("one replica newer is a partial conflict", func(t *testing.T) {
		lc := startCluster(t, LocalConfig{Nodes: 2, Replication: 2, PartitionSeed: 3,
			Cache: cache.NewLRU(1 << 20), RepairInterval: -1})
		f := lc.Frontend
		seed(lc, "k", 10, 20)
		f.cachePut("k", f.fillGen("k"), 10, []byte("v10"))
		_, err := f.Cas("k", []byte("new"), 10)
		if !errors.As(err, &conflict) || conflict.Cur != 20 || !conflict.Partial {
			t.Fatalf("cas = %v, want CasConflictError{Cur: 20, Partial: true}", err)
		}
		if _, _, ok := f.cacheGet("k"); ok {
			t.Error("cached entry survived a below-quorum cas")
		}
	})

	t.Run("lagging replica converges through hint replay", func(t *testing.T) {
		lc := startCluster(t, LocalConfig{Nodes: 3, Replication: 3, PartitionSeed: 3, RepairInterval: -1})
		f := lc.Frontend
		seed(lc, "k", 10, 10, 5)
		ver, err := f.Cas("k", []byte("new"), 10)
		if err != nil {
			t.Fatalf("cas with one lagging replica of three: %v", err)
		}
		if n := f.Metrics().Counter("hints_queued_total").Value(); n != 1 {
			t.Errorf("hints_queued_total = %d, want 1", n)
		}
		lagger := lc.Backends[f.Group("k")[2]].Store()
		converged := func() bool {
			v, _, got, _, ok := lagger.GetVersioned("k")
			return ok && got == ver && bytes.Equal(v, []byte("new"))
		}
		waitFor(t, 5*time.Second, "the lagging replica holding the committed value", converged)
	})

	t.Run("newer-than-expect replica converges through hint replay", func(t *testing.T) {
		// The third replica holds a below-quorum loser's copy at a
		// version above expect. The swap commits on the other two, and
		// the loser must get the committed value by hint, not wait for
		// anti-entropy (disabled here).
		lc := startCluster(t, LocalConfig{Nodes: 3, Replication: 3, PartitionSeed: 3, RepairInterval: -1})
		f := lc.Frontend
		seed(lc, "k", 10, 10, 20)
		ver, err := f.Cas("k", []byte("new"), 10)
		if err != nil {
			t.Fatalf("cas with one newer replica of three: %v", err)
		}
		if n := f.Metrics().Counter("hints_queued_total").Value(); n < 1 {
			t.Errorf("hints_queued_total = %d, want >= 1", n)
		}
		loser := lc.Backends[f.Group("k")[2]].Store()
		converged := func() bool {
			v, _, got, _, ok := loser.GetVersioned("k")
			return ok && got == ver && bytes.Equal(v, []byte("new"))
		}
		waitFor(t, 4*hintDrainInterval, "the losing replica holding the committed value", converged)
	})

	t.Run("every replica older reports the highest version", func(t *testing.T) {
		lc := startCluster(t, LocalConfig{Nodes: 2, Replication: 2, PartitionSeed: 3, RepairInterval: -1})
		seed(lc, "k", 5, 7)
		_, err := lc.Frontend.Cas("k", []byte("new"), 10)
		if !errors.As(err, &conflict) || conflict.Cur != 7 || conflict.Partial {
			t.Fatalf("cas = %v, want CasConflictError{Cur: 7, Partial: false}", err)
		}
	})

	t.Run("below quorum with a lagging replica", func(t *testing.T) {
		lc := startCluster(t, LocalConfig{Nodes: 2, Replication: 2, PartitionSeed: 3, RepairInterval: -1})
		seed(lc, "k", 10, 5)
		_, err := lc.Frontend.Cas("k", []byte("new"), 10)
		if err == nil || errors.Is(err, ErrCasConflict) || errors.Is(err, ErrBusy) {
			t.Fatalf("cas = %v, want a plain below-quorum error", err)
		}
		if want := `kvstore: cas "k": 1/2 acks (need 2, 1 lagging)`; err.Error() != want {
			t.Errorf("error text %q, want %q", err, want)
		}
	})
}

// TestMissFillNeverLandsOverAckedWrite: a miss that read the old value
// and fills the cache only after a write to the key acked must not
// leave the old value cached, neither over a Set nor over a Del.
func TestMissFillNeverLandsOverAckedWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(f *Frontend, key string) error
		want  string // "" = the key must read as deleted
	}{
		{"set", func(f *Frontend, key string) error { return f.Set(key, []byte("v2")) }, "v2"},
		{"del", func(f *Frontend, key string) error { return f.Del(key) }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lc := startCluster(t, LocalConfig{Nodes: 2, Replication: 2, PartitionSeed: 3,
				Cache: cache.NewLRU(1 << 20), RepairInterval: -1})
			f := lc.Frontend
			const key = "k"
			// A Set refreshes only a cached entry, so the key starts
			// uncached and the Get below misses.
			if err := f.Set(key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			reached, resume := make(chan struct{}), make(chan struct{})
			hook := func(string) {
				testHooks.beforeFill.Store(nil)
				close(reached)
				<-resume
			}
			testHooks.beforeFill.Store(&hook)
			t.Cleanup(func() { testHooks.beforeFill.Store(nil) })
			read := make(chan string, 1)
			go func() {
				v, err := f.Get(key)
				read <- fmt.Sprintf("%s %v", v, err)
			}()
			<-reached
			if err := tc.write(f, key); err != nil {
				t.Fatal(err)
			}
			close(resume)
			if got := <-read; got != "v1 <nil>" {
				t.Fatalf("the parked read returned %q, want the value it read before the write", got)
			}
			v, err := f.Get(key)
			switch {
			case tc.want == "" && !errors.Is(err, ErrNotFound):
				t.Fatalf("Get after an acked Del = %q, %v; the late fill resurrected the value", v, err)
			case tc.want != "" && string(v) != tc.want:
				t.Fatalf("Get after an acked Set = %q, %v, want %q; the late fill cached the old value", v, err, tc.want)
			}
		})
	}
}
