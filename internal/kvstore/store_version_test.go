package kvstore

import (
	"bytes"
	"testing"
)

func TestStoreVersionedSetOrdering(t *testing.T) {
	s := NewStore()
	if !s.SetVersioned("k", []byte("v5"), 0, 5) {
		t.Fatal("first versioned write rejected")
	}
	if s.SetVersioned("k", []byte("v3"), 0, 3) {
		t.Error("older version overwrote newer")
	}
	if s.SetVersioned("k", []byte("dup"), 0, 5) {
		t.Error("equal version overwrote")
	}
	if !s.SetVersioned("k", []byte("v9"), 0, 9) {
		t.Error("newer version rejected")
	}
	v, _, ver, tomb, ok := s.GetVersioned("k")
	if !ok || tomb || ver != 9 || !bytes.Equal(v, []byte("v9")) {
		t.Fatalf("GetVersioned = %q ver=%d tomb=%v ok=%v", v, ver, tomb, ok)
	}
	// Version 0 is the legacy unconditional path: always wins.
	s.SetVersioned("k", []byte("legacy"), 0, 0)
	if v, _ := s.Get("k"); !bytes.Equal(v, []byte("legacy")) {
		t.Errorf("unversioned write did not apply: %q", v)
	}
}

func TestStoreTombstoneBlocksResurrection(t *testing.T) {
	s := NewStore()
	s.SetVersioned("k", []byte("v"), 0, 5)
	if !s.DeleteVersioned("k", 0, 8) {
		t.Fatal("tombstone rejected over older value")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("tombstoned key still readable")
	}
	// A replayed stale write (a hint from before the delete) must not
	// resurrect the key.
	if s.SetVersioned("k", []byte("stale"), 0, 6) {
		t.Error("stale write resurrected tombstoned key")
	}
	if _, ok := s.Get("k"); ok {
		t.Error("key readable after stale replay")
	}
	// But a genuinely newer write revives it.
	if !s.SetVersioned("k", []byte("reborn"), 0, 9) {
		t.Error("newer write rejected over tombstone")
	}
	if v, ok := s.Get("k"); !ok || !bytes.Equal(v, []byte("reborn")) {
		t.Errorf("Get after rebirth = %q, %v", v, ok)
	}
}

func TestStoreDeleteVersionedOverNewerValue(t *testing.T) {
	s := NewStore()
	s.SetVersioned("k", []byte("v"), 0, 10)
	if s.DeleteVersioned("k", 0, 7) {
		t.Error("older tombstone reported success over newer value")
	}
	if _, ok := s.Get("k"); !ok {
		t.Error("older tombstone deleted newer value")
	}
	// Tombstoning an absent key still records the tombstone: the
	// replica that held the value may be down.
	if !s.DeleteVersioned("ghost", 0, 3) {
		t.Error("tombstone over absent key rejected")
	}
	if _, _, ver, tomb, ok := s.GetVersioned("ghost"); !ok || !tomb || ver != 3 {
		t.Errorf("ghost tombstone: ver=%d tomb=%v ok=%v", ver, tomb, ok)
	}
}

func TestStoreLenAndSweep(t *testing.T) {
	s := NewStore()
	s.SetVersioned("a", []byte("1"), 0, 1)
	s.SetVersioned("b", []byte("2"), 0, 2)
	s.DeleteVersioned("b", 0, 3)
	s.DeleteVersioned("c", 0, 4)
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d, want 1 (live only)", got)
	}
	if got := s.TombCount(); got != 2 {
		t.Errorf("TombCount = %d, want 2", got)
	}
	if swept := s.SweepTombstones(4); swept != 1 {
		t.Errorf("SweepTombstones(4) = %d, want 1 (only ver 3)", swept)
	}
	if got := s.TombCount(); got != 1 {
		t.Errorf("TombCount after sweep = %d, want 1", got)
	}
}

func TestStoreScanTombsAndDigest(t *testing.T) {
	s := NewStore()
	s.SetVersioned("live", []byte("value"), 1, 5)
	s.DeleteVersioned("dead", 1, 7)

	// Default scan: tombstones invisible.
	entries, _ := s.Scan(0, 100, 0, 0, ScanOptions{})
	if len(entries) != 1 || entries[0].Key != "live" || entries[0].Ver != 5 {
		t.Fatalf("plain scan: %+v", entries)
	}

	// Tombs included.
	entries, _ = s.Scan(0, 100, 0, 0, ScanOptions{Tombs: true})
	if len(entries) != 2 {
		t.Fatalf("tombs scan: %d entries", len(entries))
	}
	byKey := map[string]bool{}
	for _, e := range entries {
		byKey[e.Key] = e.Tomb
	}
	if byKey["live"] || !byKey["dead"] {
		t.Errorf("tomb flags wrong: %+v", byKey)
	}

	// Digest mode: values elided, hashes match ValueSum.
	entries, _ = s.Scan(0, 100, 0, 0, ScanOptions{Tombs: true, Digest: true})
	for _, e := range entries {
		if e.Key == "live" {
			if !e.Digest || e.Value != nil || e.Sum != ValueSum([]byte("value")) {
				t.Errorf("digest entry: %+v", e)
			}
		}
	}
}
