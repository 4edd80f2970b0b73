package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"securecache/internal/core"
	"securecache/internal/guard"
	"securecache/internal/kvstore"
	"securecache/internal/rotation"
)

// runGuard is the operational monitor: it polls the back-end nodes'
// admin endpoints (/metrics), computes per-window request deltas, and
// runs the load-concentration detector from internal/guard — printing a
// verdict per window and the provisioning recommendation when the
// cluster is configured below the paper's threshold.
//
// With -respond it closes the loop: when the detector holds at the
// trigger verdict for enough consecutive windows, guard POSTs the
// frontend admin's /rotate verb and the cluster re-keys its partition
// mapping live, invalidating whatever the attacker learned.
//
// With -auto-drain it also watches the frontend's per-backend circuit
// breaker gauges: a member whose breaker stays open continuously past
// -drain-after is drained out of the membership view (POST /drain), so
// its key ranges move to healthy nodes instead of sitting behind an
// open breaker. Drains are spaced by -drain-cooldown and never shrink
// the view below d members.
//
//	secctl guard -admins ... -respond 127.0.0.1:8000 -respond-windows 2 \
//	             -respond-cooldown 5m
//	secctl guard -admins ... -frontend-admin 127.0.0.1:8000 -auto-drain \
//	             -drain-after 30s -drain-cooldown 2m
func runGuard(fs *flag.FlagSet, args []string, w io.Writer) error {
	var (
		admins   = fs.String("admins", "", "comma-separated backend admin addresses (host:port)")
		d        = fs.Int("d", 3, "replication factor")
		m        = fs.Int("m", 100000, "number of items stored")
		c        = fs.Int("c", 0, "front-end cache size")
		k        = fs.Float64("k", 1.2, "bound constant")
		interval = fs.Duration("interval", 5*time.Second, "polling interval")
		windows  = fs.Int("windows", 0, "number of windows to observe (0 = forever)")
		alert    = fs.Float64("alert", 1.2, "normalized max load alert level")
		critical = fs.Float64("critical", 2.0, "normalized max load critical level")

		respond         = fs.String("respond", "", "frontend admin address: POST /rotate when the trigger verdict holds (empty = monitor only)")
		respondTrigger  = fs.String("respond-trigger", "critical", "verdict that counts toward firing: critical | skewed")
		respondWindows  = fs.Int("respond-windows", 2, "consecutive triggering windows before rotating")
		respondCooldown = fs.Duration("respond-cooldown", 5*time.Minute, "minimum spacing between triggered rotations")

		frontAdmin = fs.String("frontend-admin", "", "frontend admin address: poll GET /membership and re-derive the detection thresholds and c* when nodes join or drain (empty = static cluster)")

		autoDrain     = fs.Bool("auto-drain", false, "POST /drain for a backend whose circuit breaker stays open past -drain-after (requires -frontend-admin)")
		drainAfter    = fs.Duration("drain-after", 30*time.Second, "continuous breaker-open time before a node is drained")
		drainCooldown = fs.Duration("drain-cooldown", 2*time.Minute, "minimum spacing between auto-triggered drains")
	)
	fs.Parse(args)

	addrs := splitNonEmpty(*admins)
	if len(addrs) < 2 {
		return fmt.Errorf("guard: need at least two -admins addresses")
	}
	client := &http.Client{Timeout: 3 * time.Second}

	// With -frontend-admin the cluster shape is live state: node IDs come
	// from each backend admin's /info, the member set from the frontend's
	// /membership, and the detector's n follows committed joins/drains.
	// Without it the -admins list position IS the node ID (the static
	// seed-cluster convention).
	ids := pollIDs(client, addrs)
	members := slices.Clone(ids)
	if *frontAdmin != "" {
		var ms kvstore.MembershipStatus
		if err := call(client, http.MethodGet, *frontAdmin, "/membership", &ms); err != nil {
			return fmt.Errorf("guard: -frontend-admin: %w", err)
		}
		if len(ms.Members) > 0 {
			members = ms.Members
		}
	}

	params := core.Params{
		Nodes:       len(members),
		Replication: *d,
		Items:       *m,
		CacheSize:   *c,
		KOverride:   *k,
	}
	g, err := guard.New(guard.Config{
		Params:       params,
		AlertGain:    *alert,
		CriticalGain: *critical,
	})
	if err != nil {
		return err
	}

	var responder *rotation.Responder
	if *respond != "" {
		trigger := guard.VerdictCritical
		switch *respondTrigger {
		case "critical":
		case "skewed":
			trigger = guard.VerdictSkewed
		default:
			return fmt.Errorf("guard: unknown -respond-trigger %q", *respondTrigger)
		}
		responder, err = rotation.NewResponder(rotation.ResponderConfig{
			Trigger:  trigger,
			Windows:  *respondWindows,
			Cooldown: *respondCooldown,
			Rotate:   func() error { return rotate(client, *respond, "", w) },
		})
		if err != nil {
			return err
		}
	}

	var planner *drainPlanner
	if *autoDrain {
		if *frontAdmin == "" {
			return fmt.Errorf("guard: -auto-drain requires -frontend-admin")
		}
		planner, err = newDrainPlanner(*drainAfter, *drainCooldown, *d)
		if err != nil {
			return err
		}
	}

	prev, reachable := pollAll(client, addrs, nil)
	if reachable == 0 {
		return fmt.Errorf("guard: no admin endpoint reachable")
	}
	fmt.Fprintf(w, "guard: watching %d nodes every %v (c=%d, required c*=%d)\n",
		len(members), *interval, *c, params.RequiredCacheSize())
	memberIdx := indexMembers(members)
	for win := 0; *windows == 0 || win < *windows; win++ {
		time.Sleep(*interval)
		cur, _ := pollAll(client, addrs, prev)
		// Track committed view changes: Eq. 10, the vulnerability check,
		// and the recommended c* all move with n, so a guard still judging
		// the old member count would mis-size every verdict. Mid-change
		// (Changing) the old view keeps judging until the commit.
		if *frontAdmin != "" {
			var ms kvstore.MembershipStatus
			if err := call(client, http.MethodGet, *frontAdmin, "/membership", &ms); err == nil &&
				!ms.Changing && len(ms.Members) > 0 && !slices.Equal(ms.Members, members) {
				np := g.Params()
				np.Nodes = len(ms.Members)
				if err := g.SetParams(np); err != nil {
					fmt.Fprintln(os.Stderr, "secctl guard: resize:", err)
				} else {
					members = ms.Members
					memberIdx = indexMembers(members)
					fmt.Fprintf(w, "[%s] membership v%d committed: n=%d, thresholds re-derived (c*=%d)\n",
						time.Now().Format(time.TimeOnly), ms.Version, np.Nodes, np.RequiredCacheSize())
				}
			}
		}
		// One load slot per current member; an -admins endpoint whose node
		// drained is ignored, a member with no polled admin reads as idle.
		loads := make([]float64, len(members))
		for i := range addrs {
			idx, ok := memberIdx[ids[i]]
			if !ok {
				continue
			}
			if cur[i] >= prev[i] {
				loads[idx] = float64(cur[i] - prev[i])
			}
		}
		prev = cur
		obs, err := g.Observe(loads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secctl guard:", err)
			continue
		}
		fmt.Fprintf(w, "[%s] %s\n", time.Now().Format(time.TimeOnly), obs)
		if responder != nil {
			fired, rerr := responder.Observe(obs)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "secctl guard: rotate:", rerr)
			} else if fired {
				fmt.Fprintf(w, "[%s] rotation triggered (total %d)\n",
					time.Now().Format(time.TimeOnly), responder.Fired())
			}
		}
		// Auto-drain: the frontend's breaker gauges say which members it
		// has stopped trusting; a member that stays open past the
		// hysteresis window is drained out of the view entirely.
		if planner != nil {
			gs, gerr := gauges(client, *frontAdmin)
			if gerr != nil {
				fmt.Fprintln(os.Stderr, "secctl guard: auto-drain:", gerr)
			} else if id := planner.Observe(time.Now(), members, openMembers(gs, members)); id >= 0 {
				if derr := viewChange(client, *frontAdmin, "drain", []string{strconv.Itoa(id)}, w); derr != nil {
					fmt.Fprintln(os.Stderr, "secctl guard: auto-drain:", derr)
				}
			}
		}
	}
	return nil
}

// gauges reads an admin /metrics surface as a flat name -> value map
// (non-numeric values, such as histograms, are dropped).
func gauges(client *http.Client, admin string) (map[string]float64, error) {
	var raw map[string]any
	if err := call(client, http.MethodGet, admin, "/metrics", &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// pollAll fetches requests_total from every admin endpoint. A node that
// cannot be polled keeps its previous count (zero delta this window):
// with live membership a drained node's process goes away mid-run, and
// monitoring the survivors must not stop with it. Returns the counts and
// how many endpoints answered.
func pollAll(client *http.Client, addrs []string, prev []uint64) ([]uint64, int) {
	out := make([]uint64, len(addrs))
	reachable := 0
	for i, addr := range addrs {
		g, err := gauges(client, addr)
		if err != nil {
			if prev != nil {
				out[i] = prev[i]
			}
			continue
		}
		out[i] = uint64(g["requests_total"])
		reachable++
	}
	return out, reachable
}

// pollIDs resolves each backend admin's global node ID from its /info
// surface, falling back to list position when the endpoint does not
// answer or carries no id (the static seed-cluster convention).
func pollIDs(client *http.Client, addrs []string) []int {
	ids := make([]int, len(addrs))
	for i, addr := range addrs {
		ids[i] = i
		var info struct {
			ID *int `json:"id"`
		}
		if call(client, http.MethodGet, addr, "/info", &info) == nil && info.ID != nil {
			ids[i] = *info.ID
		}
	}
	return ids
}

func indexMembers(members []int) map[int]int {
	idx := make(map[int]int, len(members))
	for i, id := range members {
		idx[id] = i
	}
	return idx
}

// openMembers extracts which members the frontend currently reports as
// unhealthy (breaker open) from its metrics gauges.
func openMembers(gauges map[string]float64, members []int) map[int]bool {
	open := make(map[int]bool)
	for _, id := range members {
		if gauges[fmt.Sprintf("backend_unhealthy_%d", id)] > 0 {
			open[id] = true
		}
	}
	return open
}

// drainPlanner decides when a persistently unhealthy backend should be
// drained out of the membership view. The frontend's circuit breaker
// already stops SENDING to a dead node; draining goes further and hands
// its key ranges to the survivors, restoring full replication. That is
// a heavyweight, data-moving response, so the planner is deliberately
// conservative:
//
//   - hysteresis: a breaker must stay open continuously for the whole
//     `after` window before its node is a candidate — flapping nodes
//     (opened, probed, half-opened) reset their clock on every recovery;
//   - cooldown: drains are spaced at least `cooldown` apart, so one bad
//     rack does not trigger a migration storm;
//   - floor: never drain below minNodes members (the replication factor
//     d — fewer members than d cannot host a replica group at all).
//
// One node per call: the oldest-open (ties to the lowest ID), matching
// the one-change-at-a-time membership pipeline.
type drainPlanner struct {
	after     time.Duration
	cooldown  time.Duration
	minNodes  int
	openSince map[int]time.Time
	lastFired time.Time
	fired     int
}

func newDrainPlanner(after, cooldown time.Duration, minNodes int) (*drainPlanner, error) {
	if after <= 0 {
		return nil, fmt.Errorf("guard: -drain-after must be positive, got %v", after)
	}
	if cooldown < 0 {
		return nil, fmt.Errorf("guard: -drain-cooldown must be >= 0, got %v", cooldown)
	}
	if minNodes < 1 {
		return nil, fmt.Errorf("guard: drain floor %d, need >= 1", minNodes)
	}
	return &drainPlanner{
		after:     after,
		cooldown:  cooldown,
		minNodes:  minNodes,
		openSince: make(map[int]time.Time),
	}, nil
}

// Observe feeds one polling window: the current member set and which of
// those members currently have an open breaker. It returns the member ID
// to drain now, or -1. A returned ID counts as fired (the cooldown
// starts) — the caller must actually POST the drain.
func (p *drainPlanner) Observe(now time.Time, members []int, open map[int]bool) int {
	memberSet := make(map[int]bool, len(members))
	for _, id := range members {
		memberSet[id] = true
	}
	// A node that recovered, or left the view by other means, resets its
	// clock entirely.
	for id := range p.openSince {
		if !open[id] || !memberSet[id] {
			delete(p.openSince, id)
		}
	}
	for id := range open {
		if memberSet[id] {
			if _, ok := p.openSince[id]; !ok {
				p.openSince[id] = now
			}
		}
	}
	if len(members)-1 < p.minNodes {
		return -1
	}
	if p.fired > 0 && now.Sub(p.lastFired) < p.cooldown {
		return -1
	}
	best := -1
	var bestSince time.Time
	ids := make([]int, 0, len(p.openSince))
	for id := range p.openSince {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		since := p.openSince[id]
		if now.Sub(since) < p.after {
			continue
		}
		if best == -1 || since.Before(bestSince) {
			best, bestSince = id, since
		}
	}
	if best >= 0 {
		p.fired++
		p.lastFired = now
		delete(p.openSince, best)
	}
	return best
}

// Fired returns how many drains the planner has triggered.
func (p *drainPlanner) Fired() int { return p.fired }
