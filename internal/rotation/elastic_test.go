package rotation

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"securecache/internal/partition"
)

func TestBeginAllowsResize(t *testing.T) {
	e := NewEpochPartitioner(partition.NewHash(4, 2, 1))
	epoch, err := e.Begin(partition.NewRemap(partition.NewHash(5, 2, 1), []int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if epoch != 2 || !e.Rotating() {
		t.Fatalf("epoch %d rotating %v after Begin", epoch, e.Rotating())
	}
	if e.Nodes() != 5 {
		t.Fatalf("current generation has %d nodes, want 5", e.Nodes())
	}
	_, cur, prev := e.Snapshot()
	if cur.Nodes() != 5 || prev.Nodes() != 4 {
		t.Fatalf("snapshot nodes cur=%d prev=%d", cur.Nodes(), prev.Nodes())
	}
	// Still one change at a time.
	if _, err := e.Begin(partition.NewHash(6, 2, 1)); !errors.Is(err, ErrRotationActive) {
		t.Fatalf("second Begin = %v, want ErrRotationActive", err)
	}
}

func TestReverseSwapsGenerationsAndStaysOpen(t *testing.T) {
	old := partition.NewHash(4, 2, 1)
	next := partition.NewHash(5, 2, 1)
	e := NewEpochPartitioner(old)
	if _, err := e.Reverse(); err == nil {
		t.Fatal("Reverse with no rotation open succeeded")
	}
	if _, err := e.Begin(next); err != nil {
		t.Fatal(err)
	}
	e.MarkMigrated(42)
	epoch, err := e.Reverse()
	if err != nil {
		t.Fatalf("Reverse: %v", err)
	}
	if epoch != 3 {
		t.Fatalf("epoch after Reverse = %d, want 3", epoch)
	}
	if !e.Rotating() {
		t.Fatal("rotation closed by Reverse; must stay open for the rollback migration")
	}
	_, cur, prev := e.Snapshot()
	if cur != partition.Partitioner(old) || prev != partition.Partitioner(next) {
		t.Fatal("Reverse did not swap generations")
	}
	if e.Migrated(42) {
		t.Fatal("watermark survived Reverse; nothing has migrated toward the restored generation")
	}
	e.Commit()
	if e.Rotating() {
		t.Fatal("still rotating after commit")
	}
	if e.Nodes() != 4 {
		t.Fatalf("committed generation has %d nodes, want 4 (the original)", e.Nodes())
	}
}

// sparseTransport is an in-memory cluster keyed by arbitrary node IDs,
// with a configurable set of dead nodes whose scans fail.
type sparseTransport struct {
	mu    sync.Mutex
	nodes map[int][]Entry
	moved []Entry
	dead  map[int]bool
}

func newSparseTransport(perNode int, ids ...int) *sparseTransport {
	st := &sparseTransport{nodes: make(map[int][]Entry), dead: make(map[int]bool)}
	for _, id := range ids {
		for i := 0; i < perNode; i++ {
			st.nodes[id] = append(st.nodes[id], Entry{Key: fmt.Sprintf("n%d-k%d", id, i), Value: []byte("v")})
		}
	}
	return st
}

func (st *sparseTransport) Scan(node int, cursor uint64, limit int) ([]Entry, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead[node] {
		return nil, 0, errors.New("connection refused")
	}
	entries, ok := st.nodes[node]
	if !ok {
		return nil, 0, fmt.Errorf("scan of unknown node %d", node)
	}
	var page []Entry
	start := int(cursor)
	for i := start; i < len(entries) && len(page) < limit; i++ {
		page = append(page, entries[i])
	}
	next := uint64(start + len(page))
	if int(next) >= len(entries) {
		next = 0
	}
	return page, next, nil
}

func (st *sparseTransport) Move(e Entry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.moved = append(st.moved, e)
	for n := range st.nodes {
		kept := st.nodes[n][:0]
		for _, cur := range st.nodes[n] {
			if cur.Key != e.Key {
				kept = append(kept, cur)
			}
		}
		st.nodes[n] = kept
	}
	return nil
}

func TestMigratorScansExplicitNodeIDs(t *testing.T) {
	st := newSparseTransport(10, 2, 5, 9)
	m, err := NewMigrator(MigratorConfig{NodeIDs: []int{2, 5, 9}, Batch: 4}, st)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 30 {
		t.Fatalf("moved %d, want 30", moved)
	}
	if skipped := m.Skipped(); len(skipped) != 0 {
		t.Fatalf("skipped %v on a healthy cluster", skipped)
	}
}

func TestMigratorSkipsUnavailableNode(t *testing.T) {
	st := newSparseTransport(8, 1, 2, 3)
	st.dead[2] = true
	var skips []int
	m, err := NewMigrator(MigratorConfig{
		NodeIDs:     []int{1, 2, 3},
		MaxAttempts: 2,
		Unavailable: func(node int) bool { return node == 2 },
		OnSkip:      func(node int) { skips = append(skips, node) },
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := m.Run(nil)
	if err != nil {
		t.Fatalf("Run with a skippable dead node: %v", err)
	}
	// Node 2's entries are unique here (no replication in the fake), so
	// only nodes 1 and 3 drain.
	if moved != 16 {
		t.Fatalf("moved %d, want 16", moved)
	}
	if got := m.Skipped(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Skipped() = %v, want [2]", got)
	}
	if len(skips) == 0 || skips[0] != 2 {
		t.Fatalf("OnSkip calls = %v", skips)
	}
	// The node recovers: the next Run drains it and the skip list clears.
	st.mu.Lock()
	st.dead[2] = false
	st.mu.Unlock()
	m2, err := NewMigrator(MigratorConfig{
		NodeIDs:     []int{1, 2, 3},
		Unavailable: func(node int) bool { return false },
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	moved2, err := m2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved2 != 8 {
		t.Fatalf("recovery pass moved %d, want 8", moved2)
	}
	if got := m2.Skipped(); len(got) != 0 {
		t.Fatalf("Skipped() after recovery = %v", got)
	}
}

func TestMigratorDemotesMidScanDeathToSkip(t *testing.T) {
	// The node is reachable when the pass starts but dies mid-scan; once
	// the breaker marks it unavailable the exhausted scan becomes a skip
	// rather than a migration failure.
	st := newSparseTransport(8, 1, 2)
	unavailable := false
	m, err := NewMigrator(MigratorConfig{
		NodeIDs:     []int{1, 2},
		MaxAttempts: 2,
		Unavailable: func(node int) bool { return node == 2 && unavailable },
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.dead[2] = true
	st.mu.Unlock()
	unavailable = true
	moved, err := m.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if moved != 8 {
		t.Fatalf("moved %d, want 8 (node 1 only)", moved)
	}
	if got := m.Skipped(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Skipped() = %v, want [2]", got)
	}
}
