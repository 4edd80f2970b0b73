package kvstore

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot hammers the snapshot reader with arbitrary bytes: the
// reader treats snapshot files as untrusted input (a compromised disk or
// a snapshot shipped between nodes), so it must never panic and never
// allocate beyond what the stream actually delivers. An import is all
// or nothing and deterministic: a rejected stream leaves the target
// store empty, and importing accepted bytes a second time gives equal
// contents.
func FuzzReadSnapshot(f *testing.F) {
	mustSnap := func(build func(*Store)) []byte {
		s := NewStore()
		build(s)
		return encodeSnapshot(s)
	}
	seed := [][]byte{
		{},
		[]byte("SCKV"),
		mustSnap(func(s *Store) {}),
		mustSnap(func(s *Store) { s.Set("k", []byte("v")) }),
		mustSnap(func(s *Store) {
			s.SetVersioned("a", []byte("1"), 2, 9)
			s.DeleteVersioned("b", 2, 10)
		}),
		// v1 stream.
		{'S', 'C', 'K', 'V', 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'v'},
		// Hostile lengths.
		{'S', 'C', 'K', 'V', 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{'S', 'C', 'K', 'V', 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := NewStore()
		if err := s.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			if s.Len() != 0 || s.TombCount() != 0 {
				t.Fatalf("rejected import (%v) left %d keys and %d tombstones", err, s.Len(), s.TombCount())
			}
			return
		}
		s2 := NewStore()
		if err := s2.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatalf("second import of accepted bytes failed: %v", err)
		}
		diffFingerprints(t, storeFingerprint(s), storeFingerprint(s2))
	})
}
