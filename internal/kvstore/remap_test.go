package kvstore

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"testing"
	"time"

	"securecache/internal/overload"
)

// slowCommitLog is a log sink that stalls on every commit line, the way
// a blocked stderr pipe would: it stretches whatever the committing
// goroutine does after logging into a window other goroutines can hit.
type slowCommitLog struct {
	w     io.Writer
	delay time.Duration
}

func (s slowCommitLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(" committed")) {
		time.Sleep(s.delay)
	}
	return s.w.Write(p)
}

// TestMembershipQueuedChangeSurvivesRotate pins the dequeue as part of
// the commit: a drain accepted 202-queued behind a join must stage when
// the join commits, even while a Rotate retried on 409 polls for the
// slot. If the commit let go of rotateMu before dequeuing, the rotation
// could land in between and the queued drain would be dropped; a slow
// log sink holds any such window open long enough for the poll to find
// it. The cycle repeats so the window is probed on three commits.
func TestMembershipQueuedChangeSurvivesRotate(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(slowCommitLog{w: prev, delay: 20 * time.Millisecond})
	defer log.SetOutput(prev)
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         3,
		Replication:   2,
		PartitionSeed: 61,
		// Throttled so the join is still migrating when the drain queues.
		Rotation:   RotationConfig{Rate: 60, Burst: 1},
		Membership: MembershipConfig{RetryDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	const m = 20
	for i := 0; i < m; i++ {
		if err := f.Set(rotKey(i), rotVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	dropped := f.Metrics().Counter("membership_queue_dropped_total")
	stop := make(chan struct{})
	defer close(stop)
	for cycle := 0; cycle < 3; cycle++ {
		addr, err := lc.AddBackend(overload.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := f.Join(addr); err != nil || rep.Queued {
			t.Fatalf("cycle %d: join: %+v, %v", cycle, rep, err)
		}
		victim := f.MembershipStatus().Members[0]
		if rep, err := f.Drain(victim); err != nil || !rep.Queued {
			t.Fatalf("cycle %d: drain during join: %+v, %v, want queued", cycle, rep, err)
		}
		rotated := make(chan error, 1)
		go func() {
			for {
				_, err := f.Rotate(uint64(1000 + cycle))
				if !errors.Is(err, ErrRotationInProgress) {
					rotated <- err
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		select {
		case err := <-rotated:
			if err != nil {
				t.Fatalf("cycle %d: rotate: %v", cycle, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("cycle %d: rotate never got the slot: %+v", cycle, f.MembershipStatus())
		}
		waitViewSettled(t, f, 60*time.Second)
		if got := dropped.Value(); got != 0 {
			t.Fatalf("cycle %d: membership_queue_dropped_total = %d, want 0", cycle, got)
		}
		if st := f.MembershipStatus(); containsNode(st.Members, victim) || len(st.Members) != 3 {
			t.Fatalf("cycle %d: queued drain of node %d lost: members %v", cycle, victim, st.Members)
		}
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s: %v %q", rotKey(i), err, v)
		}
	}
}

// TestMembershipQueueSkipsFailedChange: a queued change that fails its
// re-validation when its turn comes is dropped and counted, and the
// change queued behind it still stages.
func TestMembershipQueueSkipsFailedChange(t *testing.T) {
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 62,
		Rotation:      RotationConfig{Rate: 60, Burst: 1},
		Membership:    MembershipConfig{RetryDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	const m = 30
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
	// Nothing listens on port 1: this join fails its reachability check
	// once it is dequeued.
	if rep, err := f.Join("127.0.0.1:1"); err != nil || !rep.Queued {
		t.Fatalf("unreachable join during join: %+v, %v, want queued", rep, err)
	}
	if rep, err := f.Drain(0); err != nil || !rep.Queued {
		t.Fatalf("drain during join: %+v, %v, want queued", rep, err)
	}
	// Join commits at v2; the bad join is dropped without staging; the
	// drain stages and commits at v3.
	st := waitMembershipView(t, f, 3, 20*time.Second)
	if containsNode(st.Members, 0) || len(st.Members) != 4 {
		t.Fatalf("drain behind the failed change never applied: members %v", st.Members)
	}
	if got := f.Metrics().Counter("membership_queue_dropped_total").Value(); got != 1 {
		t.Fatalf("membership_queue_dropped_total = %d, want 1", got)
	}
	for i := 0; i < m; i++ {
		v, err := f.Get(rotKey(i))
		if err != nil || !bytes.Equal(v, rotVal(i, 0)) {
			t.Fatalf("get %s: %v %q", rotKey(i), err, v)
		}
	}
}

// TestRotationCommitWithSkips pins the commit-with-skips rule at the
// frontend: with d nodes breaker-open, a drained pass has not covered
// every key (one could live only on the unscanned pair), so the change
// must stay open — while keys on live nodes stay readable — and commit
// once the nodes recover. View changes run the same loop (runChange).
func TestRotationCommitWithSkips(t *testing.T) {
	const d = 2
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         6,
		Replication:   d,
		PartitionSeed: 63,
		Client:        ClientConfig{ReadTimeout: 150 * time.Millisecond, MaxRetries: 1},
		Health:        HealthConfig{FailureThreshold: 2, ProbeInterval: 20 * time.Millisecond},
		Rotation:      RotationConfig{Rate: -1, MaxAttempts: 2, Backoff: time.Millisecond},
		Membership:    MembershipConfig{RetryDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	f := lc.Frontend
	dead := []int{4, 5}
	const newSeed = 4242
	next, err := newMemberMapping(f.cfg.Partitioner, f.MembershipStatus().Members, d, newSeed)
	if err != nil {
		t.Fatal(err)
	}
	_, cur, _ := f.part.Snapshot()
	avoidsDead := func(group []int) bool {
		for _, n := range dead {
			if containsNode(group, n) {
				return false
			}
		}
		return true
	}
	// Only keys that live on surviving nodes under both generations, so
	// every move lands and a pass drains: the one thing keeping the
	// rotation open is the skip count.
	var keys []string
	for i := 0; len(keys) < 30; i++ {
		id := KeyID(rotKey(i))
		if avoidsDead(cur.Group(id)) && avoidsDead(next.Group(id)) {
			keys = append(keys, rotKey(i))
		}
	}
	for _, k := range keys {
		if err := f.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range dead {
		lc.Backends[n].Close()
	}
	// Reads of keys homed on the dead pair open their breakers.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !f.nodeUnavailable(dead[0]) || !f.nodeUnavailable(dead[1]); i++ {
		if time.Now().After(deadline) {
			t.Fatal("breakers never opened for the dead nodes")
		}
		f.Get(rotKey(100000 + i))
	}

	if _, err := f.Rotate(newSeed); err != nil {
		t.Fatal(err)
	}
	skips := f.Metrics().Counter("migration_scan_skipped_total")
	for skips.Value() < 3*d {
		if time.Now().After(deadline) {
			t.Fatalf("migration never completed passes: %d skips", skips.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !f.RotationStatus().Rotating {
		t.Fatalf("rotation committed with %d of d=%d nodes unscanned", len(dead), d)
	}
	for _, k := range keys {
		if v, err := f.Get(k); err != nil || string(v) != "v-"+k {
			t.Fatalf("get %s mid-rotation: %v %q", k, err, v)
		}
	}

	// Recovery: the probe loop readmits the restarted nodes, the next
	// pass scans them, and the rotation commits.
	for _, n := range dead {
		l, err := net.Listen("tcp", lc.BackendAddrs[n])
		if err != nil {
			t.Fatal(err)
		}
		b := NewBackend(n)
		go b.Serve(l)
		defer b.Close()
	}
	waitRotated(t, f, 30*time.Second)
	if got := f.Metrics().Counter("rotations_completed_total").Value(); got != 1 {
		t.Fatalf("rotations_completed_total = %d, want 1", got)
	}
	for _, k := range keys {
		if v, err := f.Get(k); err != nil || string(v) != "v-"+k {
			t.Fatalf("get %s after commit: %v %q", k, err, v)
		}
	}
}
