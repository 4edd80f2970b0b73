package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDrainPlannerHysteresis(t *testing.T) {
	p, err := newDrainPlanner(30*time.Second, time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3}
	t0 := time.Unix(1000, 0)

	// Freshly open: not yet past the hysteresis window.
	if id := p.Observe(t0, members, map[int]bool{2: true}); id != -1 {
		t.Fatalf("drained %d immediately; want hysteresis", id)
	}
	// Still open at +29s: not yet.
	if id := p.Observe(t0.Add(29*time.Second), members, map[int]bool{2: true}); id != -1 {
		t.Fatal("drained before -drain-after elapsed")
	}
	// Past the window: fire.
	if id := p.Observe(t0.Add(31*time.Second), members, map[int]bool{2: true}); id != 2 {
		t.Fatalf("Observe = %d, want 2", id)
	}
	if p.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", p.Fired())
	}
}

func TestDrainPlannerFlappingResetsClock(t *testing.T) {
	p, err := newDrainPlanner(30*time.Second, time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3}
	t0 := time.Unix(1000, 0)
	p.Observe(t0, members, map[int]bool{2: true})
	// The breaker half-opens (probe succeeded) — gauge drops for one
	// window, which must reset node 2's clock.
	p.Observe(t0.Add(20*time.Second), members, nil)
	if id := p.Observe(t0.Add(40*time.Second), members, map[int]bool{2: true}); id != -1 {
		t.Fatalf("drained flapping node %d; recovery must reset hysteresis", id)
	}
	if id := p.Observe(t0.Add(71*time.Second), members, map[int]bool{2: true}); id != 2 {
		t.Fatalf("Observe = %d, want 2 after a full continuous window", id)
	}
}

func TestDrainPlannerCooldownAndOrder(t *testing.T) {
	p, err := newDrainPlanner(10*time.Second, time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3, 4}
	t0 := time.Unix(1000, 0)
	// Node 3 opens first, node 1 a bit later.
	p.Observe(t0, members, map[int]bool{3: true})
	p.Observe(t0.Add(5*time.Second), members, map[int]bool{1: true, 3: true})
	// Both past hysteresis: the oldest-open (3) goes first.
	if id := p.Observe(t0.Add(16*time.Second), members, map[int]bool{1: true, 3: true}); id != 3 {
		t.Fatalf("Observe = %d, want oldest-open 3", id)
	}
	// Node 1 is due too, but the cooldown holds it back.
	members = []int{0, 1, 2, 4}
	if id := p.Observe(t0.Add(20*time.Second), members, map[int]bool{1: true}); id != -1 {
		t.Fatalf("drained %d during cooldown", id)
	}
	if id := p.Observe(t0.Add(80*time.Second), members, map[int]bool{1: true}); id != 1 {
		t.Fatalf("Observe = %d, want 1 after cooldown", id)
	}
}

func TestDrainPlannerRespectsFloor(t *testing.T) {
	p, err := newDrainPlanner(time.Second, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	members := []int{0, 1, 2}
	p.Observe(t0, members, map[int]bool{1: true})
	// Draining would leave 2 < minNodes members: never.
	if id := p.Observe(t0.Add(time.Hour), members, map[int]bool{1: true}); id != -1 {
		t.Fatalf("drained %d below the replication floor", id)
	}
	// With one more member the same node is drainable.
	members = []int{0, 1, 2, 3}
	if id := p.Observe(t0.Add(2*time.Hour), members, map[int]bool{1: true}); id != 1 {
		t.Fatalf("Observe = %d, want 1 once above the floor", id)
	}
}

func TestDrainPlannerValidation(t *testing.T) {
	if _, err := newDrainPlanner(0, time.Minute, 3); err == nil {
		t.Error("zero -drain-after accepted")
	}
	if _, err := newDrainPlanner(time.Second, -time.Second, 3); err == nil {
		t.Error("negative cooldown accepted")
	}
	if _, err := newDrainPlanner(time.Second, 0, 0); err == nil {
		t.Error("zero floor accepted")
	}
}

func TestOpenMembers(t *testing.T) {
	gauges := map[string]float64{
		"backend_unhealthy_0": 0,
		"backend_unhealthy_2": 1,
		"backend_unhealthy_9": 1, // not a member: ignored
		"requests_total":      500,
	}
	open := openMembers(gauges, []int{0, 1, 2})
	if len(open) != 1 || !open[2] {
		t.Fatalf("openMembers = %v, want {2}", open)
	}
}

// adminAddr strips the scheme off an httptest server's URL.
func adminAddr(srv *httptest.Server) string { return strings.TrimPrefix(srv.URL, "http://") }

func TestCallErrors(t *testing.T) {
	client := &http.Client{Timeout: 200 * time.Millisecond}
	var out map[string]any
	if err := call(client, http.MethodGet, "127.0.0.1:1", "/metrics", &out); err == nil {
		t.Error("unreachable endpoint accepted")
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := call(client, http.MethodGet, adminAddr(bad), "/metrics", &out); err == nil {
		t.Error("500 response accepted")
	}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer garbage.Close()
	if err := call(client, http.MethodGet, adminAddr(garbage), "/metrics", &out); err == nil {
		t.Error("non-JSON response accepted")
	}

	queued := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{}`))
	}))
	defer queued.Close()
	if err := call(client, http.MethodPost, adminAddr(queued), "/rotate", &out); err == nil {
		t.Error("202 accepted where only 200 is")
	}
	if err := call(client, http.MethodPost, adminAddr(queued), "/drain", &out, http.StatusAccepted); err != nil {
		t.Errorf("202 rejected where listed: %v", err)
	}
}

func TestPollAllReadsRequestsTotal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"requests_total": 12345, "other": "x"}`))
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	got, reachable := pollAll(client, []string{adminAddr(srv)}, nil)
	if reachable != 1 || got[0] != 12345 {
		t.Errorf("pollAll = %v (%d reachable), want [12345] (1)", got, reachable)
	}
}

func TestPollAllMissingCounter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	got, reachable := pollAll(client, []string{adminAddr(srv)}, nil)
	if reachable != 1 || got[0] != 0 {
		t.Errorf("missing counter: %v (%d reachable); want [0] (1)", got, reachable)
	}
}

func TestPollAllAggregates(t *testing.T) {
	mk := func(v string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"requests_total": ` + v + `}`))
		}))
	}
	a, b := mk("10"), mk("20")
	defer a.Close()
	defer b.Close()
	client := &http.Client{Timeout: time.Second}
	got, reachable := pollAll(client, []string{adminAddr(a), adminAddr(b)}, nil)
	if reachable != 2 {
		t.Fatalf("reachable = %d, want 2", reachable)
	}
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("pollAll = %v", got)
	}
}

func TestPollAllToleratesDeadNode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"requests_total": 42}`))
	}))
	defer srv.Close()
	client := &http.Client{Timeout: 200 * time.Millisecond}
	addrs := []string{adminAddr(srv), "127.0.0.1:1"}
	// The dead node keeps its previous count: zero delta, not a lost
	// window for the survivors.
	got, reachable := pollAll(client, addrs, []uint64{0, 7})
	if reachable != 1 {
		t.Fatalf("reachable = %d, want 1", reachable)
	}
	if got[0] != 42 || got[1] != 7 {
		t.Errorf("pollAll = %v, want [42 7]", got)
	}
}

func TestDrainAcceptsQueued(t *testing.T) {
	var gotPath string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path + "?" + r.URL.RawQuery
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"version": 0, "queued": true}`))
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	if err := viewChange(client, adminAddr(srv), "drain", []string{"4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/drain?id=4" {
		t.Errorf("POST path = %q, want /drain?id=4", gotPath)
	}
}

func TestDrainRejectsError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "membership change in flight", http.StatusConflict)
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	if err := viewChange(client, adminAddr(srv), "drain", []string{"1"}, io.Discard); err == nil {
		t.Fatal("409 accepted")
	}
}

func TestGauges(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"backend_unhealthy_1": 1, "label": "x", "requests_total": 7}`))
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	g, err := gauges(client, adminAddr(srv))
	if err != nil {
		t.Fatal(err)
	}
	if g["backend_unhealthy_1"] != 1 || g["requests_total"] != 7 {
		t.Fatalf("gauges = %v", g)
	}
	if _, ok := g["label"]; ok {
		t.Error("non-numeric value kept")
	}
}
