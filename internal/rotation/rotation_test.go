package rotation

import (
	"errors"
	"testing"

	"securecache/internal/partition"
)

func TestEpochPartitionerLifecycle(t *testing.T) {
	old := partition.NewHash(8, 3, 1)
	next := partition.NewHash(8, 3, 2)
	ep := NewEpochPartitioner(old)

	if ep.Epoch() != 1 || ep.Rotating() {
		t.Fatalf("fresh partitioner: epoch %d, rotating %v", ep.Epoch(), ep.Rotating())
	}
	if got := ep.Group(42); !sameInts(got, old.Group(42)) {
		t.Fatalf("pre-rotation group %v != old mapping %v", got, old.Group(42))
	}

	epoch, err := ep.Begin(next)
	if err != nil || epoch != 2 {
		t.Fatalf("Begin: epoch %d, err %v", epoch, err)
	}
	if !ep.Rotating() {
		t.Fatal("not rotating after Begin")
	}
	if got := ep.Group(42); !sameInts(got, next.Group(42)) {
		t.Fatalf("mid-rotation group %v should follow the new mapping %v", got, next.Group(42))
	}
	_, cur, prev := ep.Snapshot()
	if cur != next || prev != old {
		t.Fatal("snapshot generations wrong")
	}
	if _, err := ep.Begin(partition.NewHash(8, 3, 3)); !errors.Is(err, ErrRotationActive) {
		t.Fatalf("double Begin: %v, want ErrRotationActive", err)
	}

	ep.MarkMigrated(42)
	if !ep.Migrated(42) || ep.Migrated(43) {
		t.Fatal("migration watermark wrong")
	}

	ep.Commit()
	if ep.Rotating() || ep.Migrated(42) {
		t.Fatal("commit did not clear rotation state")
	}
	if ep.Epoch() != 2 {
		t.Fatalf("epoch %d after commit, want 2", ep.Epoch())
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
