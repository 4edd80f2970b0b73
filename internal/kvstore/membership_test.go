package kvstore

// Elastic-membership suite: live join/drain correctness, breaker-state
// rebuild on view commit, the moved-fraction regression, rollback of a
// join whose node dies mid-fill, auto-provisioning, and the admin
// surface. The chaos-grade scenarios (crash during drain, scaling under
// attack) live in membership_chaos_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/membership"
	"securecache/internal/overload"
	"securecache/internal/partition"
)

// waitViewSettled polls until no view change or rotation is open.
func waitViewSettled(t *testing.T, f *Frontend, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := f.MembershipStatus(); !st.Changing && !st.Rotating {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("view change still open after %v: %+v", timeout, f.MembershipStatus())
}

// liveKeyCount scans every live (non-tombstone) key on a backend store.
func liveKeyCount(s *Store) int {
	n := 0
	var cursor uint64
	for {
		entries, next := s.Scan(cursor, 512, 0, 0, ScanOptions{})
		n += len(entries)
		if next == 0 {
			return n
		}
		cursor = next
	}
}

// assertPlacement checks that every key lives on exactly its replica
// group: present on all group members, absent everywhere else.
func assertPlacement(t *testing.T, f *Frontend, backends []*Backend, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		key := rotKey(i)
		group := f.Group(key)
		for node, b := range backends {
			if b == nil {
				continue
			}
			_, held := b.Store().Get(key)
			if held && !containsNode(group, node) {
				t.Fatalf("key %s on node %d outside its group %v", key, node, group)
			}
			if !held && containsNode(group, node) {
				t.Fatalf("key %s missing from group node %d (group %v)", key, node, group)
			}
		}
	}
}

func TestJoinBasic(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 51,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const m = 80
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := f.Join(addr)
	if err != nil {
		t.Fatal(err)
	}
	if report.Version != 2 || report.Epoch != 2 {
		t.Fatalf("join report %+v, want version 2 epoch 2", report)
	}
	if len(report.Joined) != 1 || report.Joined[0].ID != 4 || report.Joined[0].Addr != addr {
		t.Fatalf("join report.Joined = %+v", report.Joined)
	}

	// Every key stays readable while the fill migration runs.
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("mid-join get %s: %v %q", rotKey(i), err, v)
		}
	}

	waitViewSettled(t, f, 20*time.Second)
	st := f.MembershipStatus()
	wantMembers := []int{0, 1, 2, 3, 4}
	if st.Version != 2 || !equalIntSlices(st.Members, wantMembers) {
		t.Fatalf("post-join status %+v, want version 2 members %v", st, wantMembers)
	}

	// The committed mapping now spans 5 nodes and data follows it.
	assertPlacement(t, f, lc.Backends, m)
	if got := liveKeyCount(lc.Backends[4].Store()); got == 0 {
		t.Fatal("joined node holds no keys after the fill migration")
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("post-join get %s: %v %q", rotKey(i), err, v)
		}
	}

	reg := f.Metrics()
	if got := reg.Gauge("cluster_nodes").Value(); got != 5 {
		t.Fatalf("cluster_nodes = %d, want 5", got)
	}
	if got := reg.Counter("membership_commits_total").Value(); got != 1 {
		t.Fatalf("membership_commits_total = %d, want 1", got)
	}
	if got := reg.Counter("membership_aborts_total").Value(); got != 0 {
		t.Fatalf("membership_aborts_total = %d, want 0", got)
	}
}

func TestDrainBasic(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         5,
		Replication:   2,
		PartitionSeed: 52,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const m = 80
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	report, err := f.Drain(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Drained) != 1 || report.Drained[0] != 4 {
		t.Fatalf("drain report %+v", report)
	}
	waitViewSettled(t, f, 20*time.Second)

	st := f.MembershipStatus()
	if !equalIntSlices(st.Members, []int{0, 1, 2, 3}) {
		t.Fatalf("post-drain members %v, want [0 1 2 3]", st.Members)
	}
	// The drained node's data all moved off and was purged; it is retired
	// from health tracking and will never be probed again.
	if got := liveKeyCount(lc.Backends[4].Store()); got != 0 {
		t.Fatalf("drained node still holds %d live keys", got)
	}
	if !f.health.retiredNode(4) {
		t.Fatal("drained node not retired from health tracking")
	}
	if f.health.healthy(4) {
		t.Fatal("drained node still reads as healthy")
	}
	assertPlacement(t, f, lc.Backends[:4], m)
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("post-drain get %s: %v %q", rotKey(i), err, v)
		}
	}
}

func TestMembershipValidation(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 53,
		Rotation:      RotationConfig{Rate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	if _, err := f.Join(); err == nil {
		t.Error("empty Join accepted")
	}
	if _, err := f.Drain(); err == nil {
		t.Error("empty Drain accepted")
	}
	// A joiner that cannot be reached is refused up front and leaves no
	// staged change behind.
	if _, err := f.Join("127.0.0.1:1"); err == nil {
		t.Error("unreachable joiner accepted")
	}
	if st := f.MembershipStatus(); st.Changing || st.Rotating {
		t.Fatalf("failed join left a change open: %+v", st)
	}
	// Draining an unknown ID is refused.
	if _, err := f.Drain(99); err == nil {
		t.Error("drain of unknown node accepted")
	}
	// A change may not shrink the cluster below d members.
	if _, err := f.Drain(0, 1, 2); err == nil {
		t.Error("drain below replication accepted")
	}
	if st := f.MembershipStatus(); st.Changing || st.Rotating {
		t.Fatalf("refused change left state open: %+v", st)
	}
}

// waitMembershipView polls until the frontend's committed view reaches
// version want with nothing in flight or queued.
func waitMembershipView(t *testing.T, f *Frontend, want uint64, timeout time.Duration) MembershipStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := f.MembershipStatus()
		if st.Version >= want && !st.Changing && !st.Rotating && st.QueuedChanges == 0 {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("view never reached v%d settled: %+v", want, f.MembershipStatus())
	return MembershipStatus{}
}

// TestMembershipQueuesConcurrentChange pins the staged-change queue: a
// join-then-drain issued back-to-back queues the drain FIFO behind the
// in-flight join instead of refusing it with 409, and applies it
// automatically once the join commits. Seed rotations still conflict
// with view changes in both directions.
func TestMembershipQueuesConcurrentChange(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 54,
		// Throttle hard so the first change is still migrating when the
		// second arrives.
		Rotation:   RotationConfig{Rate: 40, Burst: 1},
		Membership: MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	for i := 0; i < 40; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(addr); err != nil {
		t.Fatal(err)
	}
	// The drain queues behind the in-flight join: accepted immediately,
	// no version assigned yet.
	rep, err := f.Drain(0)
	if err != nil || !rep.Queued {
		t.Fatalf("drain during join: %+v, %v, want queued acceptance", rep, err)
	}
	if rep.Version != 0 {
		t.Fatalf("queued report carries version %d, want none until staged", rep.Version)
	}
	if st := f.MembershipStatus(); st.QueuedChanges != 1 {
		t.Fatalf("QueuedChanges = %d with one queued drain", st.QueuedChanges)
	}
	// A seed rotation is still refused while a view change is open.
	if _, err := f.Rotate(99); !errors.Is(err, ErrRotationInProgress) {
		t.Fatalf("rotate during join: %v, want ErrRotationInProgress", err)
	}
	// Join commits at v2, then the queued drain stages and commits at v3.
	st := waitMembershipView(t, f, 3, 60*time.Second)
	if containsNode(st.Members, 0) {
		t.Fatalf("queued drain never removed node 0: members %v", st.Members)
	}
	if len(st.Members) != 4 {
		t.Fatalf("members after join+queued drain: %v, want 4", st.Members)
	}
	// Data survives both changes.
	for i := 0; i < 40; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after queued drain: %v %q", rotKey(i), err, v)
		}
	}
	// The other direction is unchanged: a seed rotation blocks view
	// changes outright (nothing queues behind a rotation).
	if _, err := f.Rotate(123); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(1); !errors.Is(err, ErrRotationInProgress) {
		t.Fatalf("drain during rotation: %v, want ErrRotationInProgress", err)
	}
	waitRotated(t, f, 30*time.Second)
}

// TestViewCommitRebuildsBreakerState pins the regression the membership
// work fixed: the frontend's replica-ordering and breaker state used to
// be sized once at construction. After a commit, a joined node must be
// immediately eligible (selected, failed over, probed, recovered) and a
// drained node must never be probed again.
func TestViewCommitRebuildsBreakerState(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 55,
		Client:        ClientConfig{ReadTimeout: 150 * time.Millisecond, MaxRetries: 2},
		Health:        HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const m = 60
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(addr); err != nil {
		t.Fatal(err)
	}
	waitViewSettled(t, f, 20*time.Second)

	const joined = 4
	if !f.health.healthy(joined) {
		t.Fatal("joined node not immediately healthy")
	}
	// Keys whose groups include the new node actually exercise it.
	var joinedKeys []string
	for i := 0; i < m; i++ {
		if containsNode(f.Group(rotKey(i)), joined) {
			joinedKeys = append(joinedKeys, rotKey(i))
		}
	}
	if len(joinedKeys) == 0 {
		t.Fatal("no key maps to the joined node")
	}
	before := lc.Backends[joined].Metrics().Counter("requests_total").Value()
	for range [40]int{} {
		for _, key := range joinedKeys {
			if _, err := f.Get(key); err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
		}
	}
	if lc.Backends[joined].Metrics().Counter("requests_total").Value() == before {
		t.Fatal("joined node served no traffic: not in the selection order")
	}

	// Kill the joined node: its breaker must open (it is in the tracker),
	// reads fail over to group siblings.
	lc.Backends[joined].Close()
	deadline := time.Now().Add(10 * time.Second)
	for f.health.state(joined) != breakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for the dead joined node")
		}
		for _, key := range joinedKeys {
			if _, err := f.Get(key); err != nil {
				t.Fatalf("get %s with dead replica: %v", key, err)
			}
		}
	}
	// Restart it on the same address: the probe loop must half-open and
	// readmit it — the joined node is fully wired into recovery.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(joined)
	go b.Serve(l)
	defer b.Close()
	for !f.health.healthy(joined) {
		if time.Now().After(deadline) {
			t.Fatal("restarted joined node never readmitted by the probe loop")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drain node 0: after commit it is retired — never probed, never
	// selected, and its disappearance is a non-event.
	if _, err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	waitViewSettled(t, f, 20*time.Second)
	if !f.health.retiredNode(0) {
		t.Fatal("drained node not retired")
	}
	lc.Backends[0].Close()
	time.Sleep(10 * 20 * time.Millisecond) // ten probe intervals
	for _, open := range f.health.openNodes() {
		if open == 0 {
			t.Fatal("drained node still in the probe target set")
		}
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after drain+death: %v %q", rotKey(i), err, v)
		}
	}
}

// TestMembershipMovedFraction pins the migrator's selectivity: a view
// change must MOVE only keys whose replica group changed under the new
// (n, seed) mapping and merely re-tag the rest, with the realized
// fraction matching both the report's sampled prediction and the exact
// per-key count.
func TestMembershipMovedFraction(t *testing.T) {
	const (
		n    = 5
		d    = 2
		m    = 400
		seed = 56
	)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         n,
		Replication:   d,
		PartitionSeed: seed,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	reg := f.Metrics()
	moved0 := reg.Counter("migration_keys_moved_total").Value()
	retag0 := reg.Counter("migration_keys_retagged_total").Value()

	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := f.Join(addr)
	if err != nil {
		t.Fatal(err)
	}
	waitViewSettled(t, f, 30*time.Second)

	movedN := float64(reg.Counter("migration_keys_moved_total").Value() - moved0)
	retagN := float64(reg.Counter("migration_keys_retagged_total").Value() - retag0)
	processed := movedN + retagN
	if processed < m {
		t.Fatalf("migration processed %.0f keys, stored %d", processed, m)
	}
	measured := movedN / processed

	// Exact ground truth over the stored keyspace.
	oldPart := partition.NewRemap(partition.NewHash(n, d, seed), []int{0, 1, 2, 3, 4})
	newPart := partition.NewRemap(partition.NewHash(n+1, d, seed), []int{0, 1, 2, 3, 4, 5})
	changed := 0
	for i := 0; i < m; i++ {
		id := KeyID(rotKey(i))
		if !sameNodeSet(oldPart.Group(id), newPart.Group(id)) {
			changed++
		}
	}
	exact := float64(changed) / float64(m)

	if diff := measured - exact; diff < -0.05 || diff > 0.05 {
		t.Errorf("measured moved fraction %.3f, exact %.3f (moved %.0f, retagged %.0f)",
			measured, exact, movedN, retagN)
	}
	if diff := measured - report.ExpectedMovedFraction; diff < -0.1 || diff > 0.1 {
		t.Errorf("measured moved fraction %.3f, report predicted %.3f",
			measured, report.ExpectedMovedFraction)
	}
	// And the placement is exactly the new mapping's.
	assertPlacement(t, f, lc.Backends, m)
}

// TestJoinAbortOnDeadJoiner: a join whose new node dies mid-fill can
// never complete (copies to it cannot land). The change must roll back
// cleanly to the old view — epoch reversed, data re-homed, the joiner's
// ID burned as dead — and a later join must work with a fresh ID.
func TestJoinAbortOnDeadJoiner(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 57,
		Client:        ClientConfig{ReadTimeout: 150 * time.Millisecond, MaxRetries: 2},
		Health:        HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		// Slow enough that the fill is still running when the joiner dies;
		// fast per-move failure so the dead-joiner check between passes
		// sees the stall promptly.
		Rotation: RotationConfig{Rate: 300, Burst: 1, MaxAttempts: 3, Backoff: 2 * time.Millisecond},
		Membership: MembershipConfig{
			AbortAfter: 600 * time.Millisecond,
			RetryDelay: 30 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	const m = 80
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := f.Join(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Joined) != 1 || report.Joined[0].ID != 4 {
		t.Fatalf("join report %+v", report)
	}
	// The joiner dies mid-fill.
	lc.Backends[4].Close()

	waitViewSettled(t, f, 30*time.Second)
	reg := f.Metrics()
	if got := reg.Counter("membership_aborts_total").Value(); got != 1 {
		t.Fatalf("membership_aborts_total = %d, want 1", got)
	}
	if got := reg.Counter("membership_commits_total").Value(); got != 0 {
		t.Fatalf("membership_commits_total = %d, want 0", got)
	}
	st := f.MembershipStatus()
	if !equalIntSlices(st.Members, []int{0, 1, 2, 3}) {
		t.Fatalf("post-rollback members %v, want [0 1 2 3]", st.Members)
	}
	// The aborted view bumped the version and recorded the joiner dead.
	if st.Version != 3 {
		t.Fatalf("post-rollback version %d, want 3", st.Version)
	}
	foundDead := false
	for _, node := range st.Nodes {
		if node.ID == 4 {
			foundDead = node.State == membership.StateDead
		}
	}
	if !foundDead {
		t.Fatalf("aborted joiner not recorded dead: %+v", st.Nodes)
	}
	if !f.health.retiredNode(4) {
		t.Fatal("aborted joiner not retired from health tracking")
	}

	// Everything re-homed under the original mapping, nothing lost.
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("post-rollback get %s: %v %q", rotKey(i), err, v)
		}
	}
	assertPlacement(t, f, lc.Backends[:4], m)

	// IDs are grow-only: the burned ID 4 is never reused.
	addr2, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	report2, err := f.Join(addr2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Joined) != 1 || report2.Joined[0].ID != 5 {
		t.Fatalf("second join allocated ID %+v, want 5", report2.Joined)
	}
	waitViewSettled(t, f, 30*time.Second)
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("post-second-join get %s: %v %q", rotKey(i), err, v)
		}
	}
}

// TestAutoProvisionOnViewChange: with Provision.Items set the frontend
// derives c* from the live member count — at boot and again on every
// committed join/drain — and resizes its cache to match.
func TestAutoProvisionOnViewChange(t *testing.T) {
	// Deliberately mis-sized at construction: boot provisioning must fix it.
	c0, err := cache.New(cache.KindLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 58,
		Cache:         c0,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
		Provision:     ProvisionConfig{Items: 500, KOverride: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend

	cstar := func(n int) int { return int(math.Ceil(float64(n)*1.2 + 1)) } // ceil(n·k+1), k=1.2
	st := f.MembershipStatus()
	if st.CStar != cstar(4) || st.CacheCapacity != cstar(4) {
		t.Fatalf("boot provisioning: c*=%d cap=%d, want both %d", st.CStar, st.CacheCapacity, cstar(4))
	}

	const m = 60
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(addr); err != nil {
		t.Fatal(err)
	}
	waitViewSettled(t, f, 20*time.Second)
	st = f.MembershipStatus()
	if st.CStar != cstar(5) || st.CacheCapacity != cstar(5) {
		t.Fatalf("post-join provisioning: c*=%d cap=%d, want both %d", st.CStar, st.CacheCapacity, cstar(5))
	}

	// Shrink: drain two nodes in one change; c* contracts with n.
	if _, err := f.Drain(0, 4); err != nil {
		t.Fatal(err)
	}
	waitViewSettled(t, f, 20*time.Second)
	st = f.MembershipStatus()
	if st.CStar != cstar(3) || st.CacheCapacity != cstar(3) {
		t.Fatalf("post-drain provisioning: c*=%d cap=%d, want both %d", st.CStar, st.CacheCapacity, cstar(3))
	}
	if got := f.Metrics().Gauge("provision_cstar").Value(); got != int64(cstar(3)) {
		t.Fatalf("provision_cstar gauge = %d, want %d", got, cstar(3))
	}
	if got := f.Metrics().Counter("cache_resizes_total").Value(); got < 3 {
		t.Fatalf("cache_resizes_total = %d, want >= 3 (boot, join, drain)", got)
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after resizes: %v %q", rotKey(i), err, v)
		}
	}
}

// TestMembershipAdminEndpoints drives join/drain over the admin HTTP
// surface exactly as an operator (or kvnode -join-via) would.
func TestMembershipAdminEndpoints(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 59,
		Admin:         true,
		// Slow migration so the 409-while-changing window is observable.
		Rotation:   RotationConfig{Rate: 60, Burst: 1},
		Membership: MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	const m = 40
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	base := "http://" + lc.AdminAddr
	hc := &http.Client{Timeout: 5 * time.Second}
	post := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := hc.Post(base+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// Method and parameter validation.
	resp, err := hc.Get(base + "/join")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /join: %d, want 405", resp.StatusCode)
	}
	if resp, _ := post("/join"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /join without addr: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/drain?id=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /drain?id=bogus: %d, want 400", resp.StatusCode)
	}

	var st MembershipStatus
	resp, err = hc.Get(base + "/membership")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Version != 1 || len(st.Members) != 4 {
		t.Fatalf("GET /membership: %v %+v", err, st)
	}

	// Join through the wire.
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post("/join?addr=" + url.QueryEscape(addr))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /join: %d: %s", resp.StatusCode, body)
	}
	var report MembershipReport
	if err := json.Unmarshal(body, &report); err != nil || report.Version != 2 {
		t.Fatalf("join report: %v %s", err, body)
	}
	// A second change while the fill migrates is queued and answered 202.
	resp, body = post("/drain?id=0")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /drain mid-change: %d, want 202: %s", resp.StatusCode, body)
	}
	var queued MembershipReport
	if err := json.Unmarshal(body, &queued); err != nil || !queued.Queued {
		t.Fatalf("queued drain report: %v %s", err, body)
	}
	// Join commits at v2; the queued drain follows automatically at v3.
	waitMembershipView(t, f, 3, 60*time.Second)

	resp, body = post("/drain?id=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain: %d: %s", resp.StatusCode, body)
	}
	waitViewSettled(t, f, 30*time.Second)
	st = f.MembershipStatus()
	if st.Version != 4 || !equalIntSlices(st.Members, []int{1, 2, 3}) {
		t.Fatalf("final status v%d members %v, want v4 [1 2 3]", st.Version, st.Members)
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after join+drain: %v %q", rotKey(i), err, v)
		}
	}
}

func equalIntSlices(a, b []int) bool {
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

func fmtMembers(ms []membership.Node) string {
	var buf bytes.Buffer
	for i, n := range ms {
		if i > 0 {
			buf.WriteByte(' ')
		}
		fmt.Fprintf(&buf, "%d:%s", n.ID, n.State)
	}
	return buf.String()
}

// TestMembershipRingPartitioner runs the join/drain pipeline under the
// consistent-hash member ring (FrontendConfig.Partitioner = ring) and
// pins its point: a ±1-member view change reports a SMALL expected
// moved fraction (~d/n, not the dense hash's near-total reshuffle)
// while every key stays readable through both changes.
func TestMembershipRingPartitioner(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         10,
		Replication:   3,
		PartitionSeed: 91,
		Partitioner:   partition.KindRing,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	const m = 80
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Join(addr)
	if err != nil {
		t.Fatal(err)
	}
	// d=3, n=10->11: the ring moves ~d/(n+1) ≈ 27%; the dense hash
	// would report >= 90%. The threshold splits those regimes.
	if rep.ExpectedMovedFraction > 0.55 {
		t.Fatalf("ring join moved fraction %.2f, want the consistent-hash regime (< 0.55)", rep.ExpectedMovedFraction)
	}
	waitViewSettled(t, f, 60*time.Second)
	rep, err = f.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExpectedMovedFraction > 0.55 {
		t.Fatalf("ring drain moved fraction %.2f, want < 0.55", rep.ExpectedMovedFraction)
	}
	waitViewSettled(t, f, 60*time.Second)
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after ring join+drain: %v %q", rotKey(i), err, v)
		}
	}
	// Seed rotation under the ring still reshuffles broadly — rotation
	// must stay an effective defense regardless of partitioner.
	rrep, err := f.Rotate(0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.ExpectedMovedFraction < 0.5 {
		t.Fatalf("ring seed rotation moved only %.2f, want a broad reshuffle", rrep.ExpectedMovedFraction)
	}
	waitRotated(t, f, 60*time.Second)
}

// TestMembershipRingMovedFractionRealized pins the ~d/n consistent-hash
// claim on the REALIZED migration, not just the staged report's sampled
// prediction: under `-partitioner ring` a join must MOVE only about a
// d/(n+1) fraction of the stored keys (counted by the migrator itself)
// and re-tag the rest in place, and the drain back out must stay in the
// same regime. This is the BENCH_membership.json ring episode
// (`secexperiments cost membership`) as a CI regression — the dense hash would
// realize ≈1.0 on both legs.
func TestMembershipRingMovedFractionRealized(t *testing.T) {
	const (
		n = 10
		d = 3
		m = 500
	)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         n,
		Replication:   d,
		PartitionSeed: 47,
		Partitioner:   partition.KindRing,
		Rotation:      RotationConfig{Rate: -1},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	reg := f.Metrics()
	realized := func(run func() (MembershipReport, error)) (measured, predicted float64) {
		t.Helper()
		moved0 := reg.Counter("migration_keys_moved_total").Value()
		retag0 := reg.Counter("migration_keys_retagged_total").Value()
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		waitViewSettled(t, f, 60*time.Second)
		movedN := float64(reg.Counter("migration_keys_moved_total").Value() - moved0)
		retagN := float64(reg.Counter("migration_keys_retagged_total").Value() - retag0)
		if movedN+retagN < m {
			t.Fatalf("migration processed %.0f keys, stored %d", movedN+retagN, m)
		}
		return movedN / (movedN + retagN), rep.ExpectedMovedFraction
	}

	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var joinID int
	joinFrac, joinPred := realized(func() (MembershipReport, error) {
		rep, err := f.Join(addr)
		if len(rep.Joined) > 0 {
			joinID = rep.Joined[0].ID
		}
		return rep, err
	})
	// d=3, n=10->11: ~d/(n+1) ≈ 0.27 with vnode placement noise. The
	// 0.55 ceiling splits the consistent-hash regime from the dense
	// hash's ≈1.0; the floor proves the joiner takes a real share.
	if joinFrac > 0.55 || joinFrac < 0.05 {
		t.Errorf("ring join realized moved fraction %.3f, want ~d/(n+1) regime (0.05..0.55)", joinFrac)
	}
	if diff := joinFrac - joinPred; diff < -0.15 || diff > 0.15 {
		t.Errorf("ring join realized %.3f vs predicted %.3f — sampled prediction off", joinFrac, joinPred)
	}

	drainFrac, drainPred := realized(func() (MembershipReport, error) {
		return f.Drain(joinID)
	})
	if drainFrac > 0.55 || drainFrac < 0.05 {
		t.Errorf("ring drain realized moved fraction %.3f, want ~d/n regime (0.05..0.55)", drainFrac)
	}
	if diff := drainFrac - drainPred; diff < -0.15 || diff > 0.15 {
		t.Errorf("ring drain realized %.3f vs predicted %.3f — sampled prediction off", drainFrac, drainPred)
	}

	// The data survived both legs under the ring mapping.
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s after ring join+drain: %v %q", rotKey(i), err, v)
		}
	}
}

// TestFrontendRejectsRegistryOnlyPartitioner pins the guard: a mapping
// family with no member-ID form (rendezvous) cannot back live
// membership.
func TestFrontendRejectsRegistryOnlyPartitioner(t *testing.T) {
	_, err := NewFrontend(FrontendConfig{
		BackendAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"},
		Replication:  2,
		Partitioner:  partition.KindRendezvous,
	})
	if err == nil {
		t.Fatal("rendezvous partitioner accepted for live membership")
	}
}
