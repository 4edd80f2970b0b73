package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

func TestStoreEpochTagging(t *testing.T) {
	s := NewStore()
	s.Set("a", []byte("v0"))
	if _, ep, _, _, ok := s.GetVersioned("a"); !ok || ep != 0 {
		t.Fatalf("plain Set stored epoch %d (ok=%v), want 0", ep, ok)
	}
	s.SetVersioned("a", []byte("v2"), 2, 0)
	if _, ep, _, _, _ := s.GetVersioned("a"); ep != 2 {
		t.Fatalf("SetVersioned stored epoch %d, want 2", ep)
	}
	if v, _ := s.Get("a"); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("value %q after SetVersioned", v)
	}
}

func TestStoreSetGuarded(t *testing.T) {
	s := NewStore()
	// Absent key: guarded write applies.
	if !s.SetGuarded("k", []byte("migrated"), 2, 0) {
		t.Fatal("guarded write to absent key not applied")
	}
	// Same epoch: a second guarded copy must not clobber.
	if s.SetGuarded("k", []byte("stale"), 2, 0) {
		t.Fatal("guarded write applied over equal epoch")
	}
	// Newer client write wins; a later guarded copy at the same epoch
	// must not resurrect the migrated value.
	s.SetVersioned("k", []byte("client"), 2, 0)
	if s.SetGuarded("k", []byte("migrated"), 2, 0) {
		t.Fatal("guarded write clobbered a client write at the same epoch")
	}
	if v, _ := s.Get("k"); !bytes.Equal(v, []byte("client")) {
		t.Fatalf("value %q, want client write preserved", v)
	}
	// Older entry: guarded write upgrades it.
	s.SetVersioned("old", []byte("v1"), 1, 0)
	if !s.SetGuarded("old", []byte("v1"), 3, 0) {
		t.Fatal("guarded write over older epoch not applied")
	}
	if _, ep, _, _, _ := s.GetVersioned("old"); ep != 3 {
		t.Fatalf("epoch %d after guarded upgrade, want 3", ep)
	}
}

func TestStoreScanPagination(t *testing.T) {
	s := NewStore()
	const n = 100
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	seen := make(map[string]bool)
	cursor := uint64(0)
	pages := 0
	for {
		entries, next := s.Scan(cursor, 7, 0, 0, ScanOptions{})
		pages++
		prev := cursor
		for _, e := range entries {
			if seen[e.Key] {
				t.Fatalf("key %q returned twice", e.Key)
			}
			seen[e.Key] = true
			if id := KeyID(e.Key); id <= prev {
				t.Fatalf("key %q out of id order", e.Key)
			} else {
				prev = id
			}
		}
		if next == 0 {
			break
		}
		cursor = next
		if pages > n {
			t.Fatal("scan did not terminate")
		}
	}
	if len(seen) != n {
		t.Fatalf("scan returned %d/%d keys", len(seen), n)
	}
}

func TestStoreScanEpochFilter(t *testing.T) {
	s := NewStore()
	s.SetVersioned("old1", []byte("a"), 0, 0)
	s.SetVersioned("old2", []byte("b"), 1, 0)
	s.SetVersioned("new1", []byte("c"), 2, 0)
	entries, next := s.Scan(0, 100, 2, 0, ScanOptions{})
	if next != 0 {
		t.Fatalf("next cursor %d, want 0", next)
	}
	if len(entries) != 2 {
		t.Fatalf("filtered scan returned %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Epoch >= 2 {
			t.Errorf("entry %q at epoch %d leaked past filter", e.Key, e.Epoch)
		}
	}
}

func TestStoreScanByteBudget(t *testing.T) {
	s := NewStore()
	big := make([]byte, 600)
	for i := 0; i < 10; i++ {
		s.Set(fmt.Sprintf("k%d", i), big)
	}
	entries, next := s.Scan(0, 100, 0, 1000, ScanOptions{})
	// 600-byte values against a 1000-byte budget: exactly one fits, the
	// second would blow the budget.
	if len(entries) != 1 || next == 0 {
		t.Fatalf("budgeted scan returned %d entries, next %d", len(entries), next)
	}
	// An oversized first entry must still be returned (progress beats
	// the budget) rather than wedging the scan.
	entries, _ = s.Scan(0, 100, 0, 10, ScanOptions{})
	if len(entries) != 1 {
		t.Fatalf("oversized first entry: %d entries, want 1", len(entries))
	}
}

func TestStoreScanCompleteOverManyPages(t *testing.T) {
	// The per-page candidate set is bounded (a limit-sized heap); this
	// pins that the continuation cursor still walks the entire keyspace
	// exactly once, including keys whose IDs land beyond the heap on
	// early pages.
	s := NewStore()
	const n = 5000
	for i := 0; i < n; i++ {
		s.SetVersioned(fmt.Sprintf("key-%04d", i), []byte("v"), 1, uint64(i+1))
	}
	seen := make(map[string]int, n)
	var cursor uint64
	pages := 0
	for {
		entries, next := s.Scan(cursor, 64, 0, 0, ScanOptions{})
		pages++
		if pages > 2*n {
			t.Fatal("scan did not terminate")
		}
		for _, e := range entries {
			seen[e.Key]++
		}
		if next == 0 {
			break
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
		}
		cursor = next
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %q seen %d times", k, c)
		}
	}
	if want := (n + 63) / 64; pages < want {
		t.Fatalf("scan finished in %d pages, expected at least %d", pages, want)
	}
}

func TestStoreScanCursorSkipsDeletedCandidates(t *testing.T) {
	// A page whose trailing candidates are deleted between collection
	// and re-read must still advance past them instead of re-walking
	// (and re-filtering) the same territory forever.
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("k%03d", i), []byte("v"))
	}
	var cursor uint64
	total := 0
	for rounds := 0; ; rounds++ {
		if rounds > 400 {
			t.Fatal("scan did not terminate")
		}
		entries, next := s.Scan(cursor, 10, 0, 0, ScanOptions{})
		total += len(entries)
		// Adversarial churn: delete every key the page just returned, so
		// the next collection pass sees none of them.
		for _, e := range entries {
			s.Delete(e.Key)
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	if total != 200 {
		t.Fatalf("scan returned %d entries across pages, want 200", total)
	}
}
