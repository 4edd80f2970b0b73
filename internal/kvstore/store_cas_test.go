package kvstore

import (
	"bytes"
	"testing"

	"securecache/internal/node"
)

func TestStoreCasCreateAndSwap(t *testing.T) {
	s := NewStore()

	// CAS-create: expect 0 against an absent key.
	applied, ver := s.CasVersioned("k", []byte("v1"), 0, 0, 10)
	if !applied || ver != 10 {
		t.Fatalf("cas-create = (%v, %d), want (true, 10)", applied, ver)
	}
	if v, _, gver, tomb, ok := s.GetVersioned("k"); !ok || tomb || gver != 10 || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("after create: (%q, %d, %v, %v)", v, gver, tomb, ok)
	}

	// Swap over the created version.
	applied, ver = s.CasVersioned("k", []byte("v2"), 0, 10, 20)
	if !applied || ver != 20 {
		t.Fatalf("swap = (%v, %d), want (true, 20)", applied, ver)
	}

	// Stale expectation loses and reports the live version.
	applied, ver = s.CasVersioned("k", []byte("v3"), 0, 10, 30)
	if applied || ver != 20 {
		t.Fatalf("stale swap = (%v, %d), want (false, 20)", applied, ver)
	}

	// CAS-create against an existing key loses.
	if applied, _ = s.CasVersioned("k", []byte("v4"), 0, 0, 40); applied {
		t.Fatal("cas-create over a live key applied")
	}
}

func TestStoreCasTombstone(t *testing.T) {
	s := NewStore()
	s.SetVersioned("k", []byte("v"), 0, 5)
	if !s.DeleteVersioned("k", 0, 8) {
		t.Fatal("delete not applied")
	}

	// A tombstoned key has live version 0: expect 0 recreates it...
	applied, ver := s.CasVersioned("k", []byte("v2"), 0, 0, 12)
	if !applied || ver != 12 {
		t.Fatalf("cas over tombstone = (%v, %d), want (true, 12)", applied, ver)
	}

	// ...but never with a version older than the tombstone's
	// (highest-version-wins protects against reordered replay).
	s2 := NewStore()
	s2.DeleteVersioned("k", 0, 8)
	applied, ver = s2.CasVersioned("k", []byte("v"), 0, 0, 3)
	if applied || ver != 0 {
		t.Fatalf("stale cas over tombstone = (%v, %d), want (false, 0)", applied, ver)
	}
	// Expecting the tombstone's version (rather than 0) also loses: the
	// precondition is on the live version.
	if applied, _ = s2.CasVersioned("k", []byte("v"), 0, 8, 9); applied {
		t.Fatal("cas expecting a tombstone version applied")
	}
}

func TestStoreCasDuplicateDelivery(t *testing.T) {
	s := NewStore()
	if applied, _ := s.CasVersioned("k", []byte("v"), 0, 0, 7); !applied {
		t.Fatal("first delivery rejected")
	}
	// Same newVer again: the retry of an applied swap succeeds without
	// rewriting (quorum retries depend on this).
	applied, ver := s.CasVersioned("k", []byte("v"), 0, 0, 7)
	if !applied || ver != 7 {
		t.Fatalf("duplicate delivery = (%v, %d), want (true, 7)", applied, ver)
	}
}

func TestStoreCasAssignsVersion(t *testing.T) {
	s := NewStore()
	applied, ver := s.CasVersioned("k", []byte("v"), 0, 0, 0)
	if !applied || ver != 1 {
		t.Fatalf("assigned = (%v, %d), want (true, 1)", applied, ver)
	}
	applied, ver = s.CasVersioned("k", []byte("v2"), 0, 1, 0)
	if !applied || ver != 2 {
		t.Fatalf("assigned swap = (%v, %d), want (true, 2)", applied, ver)
	}
}

func TestStoreCasCheckHook(t *testing.T) {
	node.DisableCasCheck.Store(true)
	defer node.DisableCasCheck.Store(false)
	s := NewStore()
	s.SetVersioned("k", []byte("v"), 0, 5)
	// With the precondition gone, a wrong expectation still applies —
	// the broken behavior the checker must catch.
	applied, ver := s.CasVersioned("k", []byte("bad"), 0, 999, 9)
	if !applied || ver != 9 {
		t.Fatalf("hooked cas = (%v, %d), want (true, 9)", applied, ver)
	}
}
