package kvstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// scanAll pages through the whole store and returns every entry seen.
func scanAll(t *testing.T, s *Store, opts ScanOptions) map[string]int {
	t.Helper()
	seen := make(map[string]int)
	cursor := uint64(0)
	for {
		page, next := s.Scan(cursor, 64, 0, 1<<20, opts)
		for _, e := range page {
			seen[e.Key]++
		}
		if next == 0 {
			return seen
		}
		cursor = next
	}
}

// TestStoreConcurrentVersionedWrites hammers one store with every
// mutator at once — versioned and CAS writes, guarded copies, versioned
// and hard deletes — plus reads and scans, then verifies the bookkeeping
// the hot path depends on: a full SCAN sees every surviving key exactly
// once, and the O(1) Len/TombCount counters match a brute-force recount
// via GetVersioned. The same mix then runs on a node logging to a data
// dir, and a fresh node that replays the dir must rebuild the same
// entries and counts. Run under -race this is the sharded store's safety
// proof.
func TestStoreConcurrentVersionedWrites(t *testing.T) {
	s := NewStore()
	hammerStore(s)
	live, tombs := checkStoreCounts(t, s)

	// Quiescent SCAN must deliver every surviving key exactly once.
	seen := scanAll(t, s, ScanOptions{})
	if len(seen) != live {
		t.Errorf("scan saw %d keys, want %d live", len(seen), live)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("scan saw %q %d times", k, n)
		}
		if _, ok := s.Get(k); !ok {
			t.Errorf("scan returned %q which reads as absent", k)
		}
	}
	withTombs := scanAll(t, s, ScanOptions{Tombs: true})
	if len(withTombs) != live+tombs {
		t.Errorf("tombstone scan saw %d entries, want %d", len(withTombs), live+tombs)
	}

	dir := filepath.Join(t.TempDir(), "node0")
	b := NewBackend(0)
	if _, err := b.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	hammerStore(b.Store())
	checkStoreCounts(t, b.Store())
	want := storeFingerprint(b.Store())
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewBackend(0)
	if _, err := r.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkStoreCounts(t, r.Store())
	diffFingerprints(t, want, storeFingerprint(r.Store()))
}

const hammerKeys = 256

// hammerStore runs 8 workers of seeded random ops over hammerKeys keys.
func hammerStore(s *Store) {
	const (
		workers = 8
		opsEach = 1500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := uint64(w)*0x9e3779b9 + 1
			for i := 0; i < opsEach; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				// Key and op come from disjoint high bits: an LCG's low
				// bits repeat with short periods, which would pin each
				// key to one op.
				k := fmt.Sprintf("ckey-%03d", (rnd>>24)%hammerKeys)
				// Versions unique per op so highest-version-wins has a
				// total order to converge to.
				ver := uint64(w*opsEach+i) + 1
				switch (rnd >> 40) % 10 {
				case 0:
					s.DeleteVersioned(k, 0, ver)
				case 1:
					s.SetGuarded(k, []byte(k), uint32(rnd>>56)%4, ver)
				case 2:
					s.Get(k)
				case 3:
					s.Scan(0, 16, 0, 1<<16, ScanOptions{Tombs: true})
				case 4:
					_, _, cur, _, _ := s.GetVersioned(k)
					s.CasVersioned(k, []byte(k), 0, cur, ver)
				case 5:
					s.Delete(k)
				default:
					s.SetVersioned(k, []byte(k), 0, ver)
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkStoreCounts recounts live keys and tombstones key by key and
// checks Len and TombCount against the recount, which it returns.
func checkStoreCounts(t *testing.T, s *Store) (live, tombs int) {
	t.Helper()
	for i := 0; i < hammerKeys; i++ {
		if _, _, _, tomb, ok := s.GetVersioned(fmt.Sprintf("ckey-%03d", i)); ok {
			if tomb {
				tombs++
			} else {
				live++
			}
		}
	}
	if got := s.Len(); got != live {
		t.Errorf("Len() = %d, recount says %d live keys", got, live)
	}
	if got := s.TombCount(); got != tombs {
		t.Errorf("TombCount() = %d, recount says %d tombstones", got, tombs)
	}
	return live, tombs
}

// TestStoreTombCounter walks every mutation that can create or destroy a
// tombstone and checks the O(1) counters after each step.
func TestStoreTombCounter(t *testing.T) {
	s := NewStore()
	check := func(step string, wantLive, wantTombs int) {
		t.Helper()
		if got := s.Len(); got != wantLive {
			t.Fatalf("%s: Len() = %d, want %d", step, got, wantLive)
		}
		if got := s.TombCount(); got != wantTombs {
			t.Fatalf("%s: TombCount() = %d, want %d", step, got, wantTombs)
		}
	}
	check("empty", 0, 0)

	s.SetVersioned("a", []byte("1"), 0, 1)
	check("set a", 1, 0)
	s.DeleteVersioned("a", 0, 2)
	check("tombstone a", 0, 1)
	// Same-version repeat: no state change either way.
	s.DeleteVersioned("a", 0, 2)
	check("repeat tombstone a", 0, 1)
	// Stale write under the tombstone's version must not apply.
	if s.SetVersioned("a", []byte("stale"), 0, 1) {
		t.Fatal("stale write applied over tombstone")
	}
	check("stale set a", 0, 1)
	// Newer write resurrects the key and retires the tombstone.
	s.SetVersioned("a", []byte("3"), 0, 3)
	check("resurrect a", 1, 0)

	// Tombstone an absent key.
	s.DeleteVersioned("b", 0, 5)
	check("tombstone b", 1, 1)
	// Guarded migration copy over the tombstone (newer epoch wins).
	if !s.SetGuarded("b", []byte("mig"), 2, 4) {
		t.Fatal("guarded copy declined over older-epoch tombstone")
	}
	check("migrate b", 2, 0)

	// Hard delete of a tombstone.
	s.DeleteVersioned("c", 0, 7)
	check("tombstone c", 2, 1)
	s.Delete("c")
	check("hard-delete c", 2, 0)

	// Sweep only takes tombstones below the horizon.
	s.DeleteVersioned("d", 0, 10)
	s.DeleteVersioned("e", 0, 20)
	check("two tombstones", 2, 2)
	if swept := s.SweepTombstones(15); swept != 1 {
		t.Fatalf("SweepTombstones(15) = %d, want 1", swept)
	}
	check("after sweep", 2, 1)
}

// TestStoreAppendValue covers the copy-free read used by the backend GET
// path: value bytes land in the caller's buffer, tombstones and unknown
// keys append nothing.
func TestStoreAppendValue(t *testing.T) {
	s := NewStore()
	s.SetVersioned("k", []byte("hello"), 0, 3)
	buf := make([]byte, 0, 64)
	buf = append(buf, "hdr:"...)
	out, ver, tomb, ok := s.AppendValue(buf, "k")
	if !ok || tomb || ver != 3 || string(out) != "hdr:hello" {
		t.Fatalf("AppendValue(k) = %q, ver=%d, tomb=%v, ok=%v", out, ver, tomb, ok)
	}
	out, _, tomb, ok = s.AppendValue(out[:0], "missing")
	if ok || tomb || len(out) != 0 {
		t.Fatalf("AppendValue(missing) = %q, tomb=%v, ok=%v", out, tomb, ok)
	}
	s.DeleteVersioned("k", 0, 9)
	out, ver, tomb, ok = s.AppendValue(out[:0], "k")
	if !ok || !tomb || ver != 9 || len(out) != 0 {
		t.Fatalf("AppendValue(tombstoned) = %q, ver=%d, tomb=%v, ok=%v", out, ver, tomb, ok)
	}
}
