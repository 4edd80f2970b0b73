package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"securecache/internal/cache"
)

// TestFrontendCasLifecycle drives the replicated CAS through its full
// state machine against a real quorum: create, swap, stale-expectation
// conflict, delete, and re-create over the tombstone.
func TestFrontendCasLifecycle(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes: 3, Replication: 3, PartitionSeed: 1,
		Cache: cache.NewLRU(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	// CAS-create: expect 0 over an absent key.
	v1, err := f.Cas("k", []byte("one"), 0)
	if err != nil || v1 == 0 {
		t.Fatalf("cas-create: ver=%d err=%v", v1, err)
	}
	// A second create must lose with the winner's version as evidence.
	_, err = f.Cas("k", []byte("zero"), 0)
	var conflict *CasConflictError
	if !errors.As(err, &conflict) || conflict.Cur != v1 || conflict.Partial {
		t.Fatalf("duplicate cas-create: %v", err)
	}
	if !errors.Is(err, ErrCasConflict) {
		t.Fatalf("conflict does not unwrap to ErrCasConflict: %v", err)
	}

	// Successful swap advances the version.
	v2, err := f.Cas("k", []byte("two"), v1)
	if err != nil || v2 <= v1 {
		t.Fatalf("cas-swap: ver=%d err=%v", v2, err)
	}
	got, ver, tomb, err := f.GetV("k")
	if err != nil || tomb || ver != v2 || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("GetV after swap: %q ver=%d tomb=%v err=%v", got, ver, tomb, err)
	}

	// A swap against the overwritten version must report the live one.
	_, err = f.Cas("k", []byte("stale"), v1)
	if !errors.As(err, &conflict) || conflict.Cur != v2 {
		t.Fatalf("stale cas: %v", err)
	}
	if got, _ := f.Get("k"); !bytes.Equal(got, []byte("two")) {
		t.Fatalf("stale cas mutated the value: %q", got)
	}

	// Delete tombs the key: the live version for CAS drops to 0.
	if _, err := f.DelV("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Cas("k", []byte("resurrect"), v2); !errors.As(err, &conflict) || conflict.Cur != 0 {
		t.Fatalf("cas over tombstone with old expect: %v", err)
	}
	v3, err := f.Cas("k", []byte("three"), 0)
	if err != nil || v3 <= v2 {
		t.Fatalf("cas re-create over tombstone: ver=%d err=%v", v3, err)
	}
	if got, _ := f.Get("k"); !bytes.Equal(got, []byte("three")) {
		t.Fatalf("after re-create: %q", got)
	}

	if n := f.Metrics().Counter("cas_conflicts_total").Value(); n != 3 {
		t.Errorf("cas_conflicts_total = %d, want 3", n)
	}
}

// TestFrontendCasCacheCoherence checks that a committed CAS refreshes a
// resident cache entry in place and a conflicting one never pollutes it.
func TestFrontendCasCacheCoherence(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes: 3, Replication: 3, PartitionSeed: 7,
		Cache: cache.NewLRU(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	ver, err := f.SetV("k", []byte("cached"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("k"); err != nil { // populate the cache
		t.Fatal(err)
	}
	if _, _, ok := f.cacheGet("k"); !ok {
		t.Fatal("key not cached after read")
	}

	// Committed swap: the resident entry must carry the new value+version.
	v2, err := f.Cas("k", []byte("swapped"), ver)
	if err != nil {
		t.Fatal(err)
	}
	cv, cver, ok := f.cacheGet("k")
	if !ok || cver != v2 || !bytes.Equal(cv, []byte("swapped")) {
		t.Fatalf("cache after committed cas: %q ver=%d ok=%v", cv, cver, ok)
	}

	// Rejected swap: the cache must still serve the committed state, and
	// the loser's value must never appear.
	if _, err := f.Cas("k", []byte("loser"), ver); err == nil {
		t.Fatal("stale cas succeeded")
	}
	if cv, _, ok := f.cacheGet("k"); ok && !bytes.Equal(cv, []byte("swapped")) {
		t.Fatalf("cache polluted by rejected cas: %q", cv)
	}
	if got, _ := f.Get("k"); !bytes.Equal(got, []byte("swapped")) {
		t.Fatalf("read after rejected cas: %q", got)
	}
}

// TestFrontendCasOverWire exercises the whole stack — Client frames an
// OpCas to the frontend listener, the frontend fans out a quorum CAS,
// and the conflict payload survives the trip back.
func TestFrontendCasOverWire(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes: 3, Replication: 3, PartitionSeed: 3,
		Cache: cache.NewLRU(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	c := NewClient(lc.FrontendAddr)
	defer c.Close()

	v1, err := c.Cas("wire", []byte("a"), 0)
	if err != nil || v1 == 0 {
		t.Fatalf("cas-create over wire: ver=%d err=%v", v1, err)
	}
	// GetV through the frontend agrees on value and version.
	v, ver, tomb, err := c.GetV("wire")
	if err != nil || tomb || ver != v1 || !bytes.Equal(v, []byte("a")) {
		t.Fatalf("GetV over wire: %q ver=%d tomb=%v err=%v", v, ver, tomb, err)
	}

	// Conflict round-trips as a typed error with the live version.
	_, err = c.Cas("wire", []byte("b"), v1+99)
	var conflict *CasConflictError
	if !errors.As(err, &conflict) || conflict.Cur != v1 || conflict.Partial {
		t.Fatalf("conflict over wire: %v", err)
	}

	v2, err := c.Cas("wire", []byte("b"), v1)
	if err != nil || v2 <= v1 {
		t.Fatalf("cas-swap over wire: ver=%d err=%v", v2, err)
	}

	// Versioned delete visibility: DelV then GetV reports the tombstone.
	dver, err := c.DelV("wire")
	if err != nil || dver <= v2 {
		t.Fatalf("DelV over wire: ver=%d err=%v", dver, err)
	}
	if _, ver, tomb, err := c.GetV("wire"); !errors.Is(err, ErrNotFound) || !tomb || ver != dver {
		t.Fatalf("GetV after delete: ver=%d tomb=%v err=%v", ver, tomb, err)
	}
}

// TestFrontendCasSerializesRacers races concurrent CAS-creates holding
// the same expectation through one frontend. Quorum intersection alone
// guarantees at most one definite winner per key; racers whose acks
// split three ways would all lose with Partial conflicts. The frontend
// serializes same-key CAS, so every round has exactly one winner.
func TestFrontendCasSerializesRacers(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes: 5, Replication: 3, PartitionSeed: 11,
		Cache: cache.NewLRU(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const racers, rounds = 8, 10
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("contested-%d", round)
		type outcome struct {
			ver uint64
			err error
		}
		results := make(chan outcome, racers)
		for r := 0; r < racers; r++ {
			go func(r int) {
				ver, err := f.Cas(key, []byte(fmt.Sprintf("r%d-%d", round, r)), 0)
				results <- outcome{ver, err}
			}(r)
		}
		wins := 0
		var winVer uint64
		for r := 0; r < racers; r++ {
			out := <-results
			if out.err == nil {
				wins++
				winVer = out.ver
			} else if !errors.Is(out.err, ErrCasConflict) {
				t.Fatalf("round %d: non-conflict failure: %v", round, out.err)
			}
		}
		// Racers take turns per key, so the first one's create commits
		// and every later one conflicts with it.
		if wins != 1 {
			t.Fatalf("round %d: %d definite winners, want exactly 1", round, wins)
		}
		// The winner's swap is committed: chaining a CAS onto its
		// version must succeed (uncontended, full group reachable).
		if _, err := f.Cas(key, []byte("chained"), winVer); err != nil {
			t.Fatalf("round %d: chained cas on committed ver %d: %v", round, winVer, err)
		}
	}
}
