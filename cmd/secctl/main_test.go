package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"securecache/internal/kvstore"
	"securecache/internal/overload"
)

// startAdminCluster boots an in-process cluster whose frontend serves
// its admin verbs (the AdminHandlers mounted by StartAdminWith) and
// preloads a few keys so every epoch change has something to migrate.
func startAdminCluster(t *testing.T, cfg kvstore.LocalConfig) *kvstore.LocalCluster {
	t.Helper()
	cfg.Admin = true
	lc, err := kvstore.StartLocalCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	for i := 0; i < 50; i++ {
		if err := lc.Frontend.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return lc
}

func TestRotateWaitAdvancesEpoch(t *testing.T) {
	lc := startAdminCluster(t, kvstore.LocalConfig{Nodes: 3, Replication: 2, PartitionSeed: 1,
		Rotation: kvstore.RotationConfig{Rate: -1}})
	before := lc.Frontend.RotationStatus().Epoch
	var out bytes.Buffer
	if err := run([]string{"rotate", "-admin", lc.AdminAddr, "-wait"}, &out); err != nil {
		t.Fatal(err)
	}
	st := lc.Frontend.RotationStatus()
	if st.Epoch <= before || st.Rotating {
		t.Fatalf("after rotate -wait: epoch %d (was %d), rotating %v", st.Epoch, before, st.Rotating)
	}
	if !strings.Contains(out.String(), "rotation started") || !strings.Contains(out.String(), "(settled)") {
		t.Errorf("rotate -wait printed %q", out.String())
	}
}

func TestJoinThenDrainCommit(t *testing.T) {
	lc := startAdminCluster(t, kvstore.LocalConfig{Nodes: 3, Replication: 2, PartitionSeed: 2,
		Rotation: kvstore.RotationConfig{Rate: -1}})
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	id := len(lc.Backends) - 1
	if err := run([]string{"join", "-admin", lc.AdminAddr, "-wait", addr}, io.Discard); err != nil {
		t.Fatal(err)
	}
	st := lc.Frontend.MembershipStatus()
	if st.Changing || st.Rotating || !slices.Contains(st.Members, id) {
		t.Fatalf("after join -wait: members %v (want %d in), changing %v, rotating %v",
			st.Members, id, st.Changing, st.Rotating)
	}
	if err := run([]string{"drain", "-admin", lc.AdminAddr, "-wait", strconv.Itoa(id)}, io.Discard); err != nil {
		t.Fatal(err)
	}
	st = lc.Frontend.MembershipStatus()
	if st.Changing || st.Rotating || slices.Contains(st.Members, id) {
		t.Fatalf("after drain -wait: members %v (want %d out), changing %v, rotating %v",
			st.Members, id, st.Changing, st.Rotating)
	}
}

// TestVerbsDuringOpenChange holds a view change open (its migration is
// throttled to one key a second) and checks the two answers an operator
// meets then: a rotation is refused with 409, and a drain is queued with
// 202, which counts as success.
func TestVerbsDuringOpenChange(t *testing.T) {
	lc := startAdminCluster(t, kvstore.LocalConfig{Nodes: 3, Replication: 2, PartitionSeed: 3,
		Rotation: kvstore.RotationConfig{Rate: 1, Burst: 1}})
	addr, err := lc.AddBackend(overload.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"join", "-admin", lc.AdminAddr, addr}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !lc.Frontend.MembershipStatus().Changing {
		t.Fatal("throttled join did not leave a change open")
	}
	err = run([]string{"rotate", "-admin", lc.AdminAddr}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "status 409") {
		t.Fatalf("rotate during an open change = %v, want a 409 error", err)
	}
	var out bytes.Buffer
	if err := run([]string{"drain", "-admin", lc.AdminAddr, "0"}, &out); err != nil {
		t.Fatalf("queued drain = %v, want success", err)
	}
	if !strings.Contains(out.String(), "queued") {
		t.Errorf("drain printed %q, want a queued report", out.String())
	}
	if n := lc.Frontend.MembershipStatus().QueuedChanges; n != 1 {
		t.Errorf("QueuedChanges = %d, want 1", n)
	}
}

func TestStatusAndBound(t *testing.T) {
	lc := startAdminCluster(t, kvstore.LocalConfig{Nodes: 3, Replication: 2, PartitionSeed: 4})
	var out bytes.Buffer
	if err := run([]string{"status", "-admin", lc.AdminAddr}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 members [0 1 2]") || !strings.Contains(out.String(), "rotations completed") {
		t.Errorf("status printed %q", out.String())
	}
	out.Reset()
	if err := run([]string{"bound", "-n", "1000", "-d", "3", "-c", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verdict: VULNERABLE") {
		t.Errorf("bound at c=200 printed %q, want a VULNERABLE verdict", out.String())
	}
	if err := run([]string{"nosuchverb"}, io.Discard); err == nil {
		t.Error("unknown verb accepted")
	}
}
