package kvstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/core"
	"securecache/internal/disttier"
	"securecache/internal/membership"
	"securecache/internal/metrics"
	"securecache/internal/overload"
)

// This file is the membership constructor of the remap engine (remap.go):
// live join and drain of backend nodes, each a new member set under the
// same secret seed, plus the re-provisioning a committed view triggers.

// DefaultJoinAbortAfter is how long a view change keeps retrying
// against a dead joining node before rolling back.
const DefaultJoinAbortAfter = 20 * time.Second

// defaultViewRetryDelay paces migration retries within an epoch change.
const defaultViewRetryDelay = 500 * time.Millisecond

// MembershipConfig tunes live join/drain. The zero value uses the
// defaults above.
type MembershipConfig struct {
	// AbortAfter bounds how long a view change keeps retrying while a
	// JOINING node is unreachable before rolling the change back
	// (0 = DefaultJoinAbortAfter; negative = retry forever).
	AbortAfter time.Duration
	// RetryDelay is the pause between failed migration passes of any
	// epoch change — a view change or a secret rotation (0 = 500ms).
	RetryDelay time.Duration
}

// ProvisionConfig enables automatic cache provisioning from the
// paper's model: on boot and on every committed view change the
// frontend computes c* from the live member count and resizes its
// cache. Zero value (Items == 0) disables it.
type ProvisionConfig struct {
	// Items is m, the expected number of stored keys. > 0 enables
	// auto-provisioning.
	Items int
	// KPrime is the Θ(1) additive constant k' (0 = core.DefaultKPrime).
	KPrime float64
	// KOverride, if non-zero, uses this k directly (the paper's figures
	// fix k = 1.2).
	KOverride float64
}

func (p ProvisionConfig) validate() error {
	if p.Items < 0 {
		return fmt.Errorf("kvstore: Provision.Items = %d, need >= 0", p.Items)
	}
	return nil
}

// MembershipReport is what Join/Drain returns once the view change is
// staged and migrating.
type MembershipReport struct {
	// Version is the staged view's version.
	Version uint64 `json:"version"`
	// Epoch is the epoch the change opened.
	Epoch uint32 `json:"epoch"`
	// Joined lists the staged joining nodes with their newly allocated
	// global IDs.
	Joined []membership.Node `json:"joined,omitempty"`
	// Drained lists the IDs staged out.
	Drained []int `json:"drained,omitempty"`
	// ExpectedMovedFraction is the sampled fraction of keys whose
	// replica group changes under the new member set. How close it sits
	// to the minimal consistent-placement cost depends on the
	// partitioner's stability under an n change (the hash partitioner
	// reshuffles broadly); either way the migrator verifies per key and
	// copies nothing for groups that survived the change.
	ExpectedMovedFraction float64 `json:"expected_moved_fraction"`
	// Queued reports the change was accepted while another view change
	// was in flight: it is staged FIFO and applied automatically after
	// the in-flight change commits or rolls back. All other fields are
	// zero for a queued report — the version, epoch, and moved fraction
	// are only known once the change actually stages.
	Queued bool `json:"queued,omitempty"`
}

// pendingView is one membership change queued behind an in-flight view
// change (guarded by rotateMu, staged FIFO by stageQueued).
type pendingView struct {
	joinAddrs []string
	drainIDs  []int
}

// MembershipStatus is the observable membership state (also the
// payload of the OpMembers wire verb and of the admin GET /membership,
// which is how kvload and `secctl guard` discover the live cluster shape).
type MembershipStatus struct {
	Version uint64 `json:"version"`
	Epoch   uint32 `json:"epoch"`
	// Changing reports a staged, uncommitted view change.
	Changing bool `json:"changing"`
	// Rotating reports any open epoch change (seed rotation OR view
	// change) — while true, reads run dual-epoch.
	Rotating    bool              `json:"rotating"`
	Nodes       []membership.Node `json:"nodes"`
	Members     []int             `json:"members"`
	MemberAddrs []string          `json:"member_addrs"`
	// CStar is the auto-provisioned cache size target for the current
	// member count (0 when auto-provisioning is off).
	CStar int `json:"cstar,omitempty"`
	// CacheCapacity is the cache's live capacity (0 when cacheless).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// QueuedChanges counts membership changes staged FIFO behind the
	// in-flight one.
	QueuedChanges int `json:"queued_changes,omitempty"`
}

// Join adds backend nodes at the given addresses to the cluster: each
// gets a fresh grow-only global ID, joins the staged member set, and
// is filled by the migration before the view commits. Returns once the
// change is staged and migrating (progress via MembershipStatus).
func (f *Frontend) Join(addrs ...string) (MembershipReport, error) {
	if len(addrs) == 0 {
		return MembershipReport{}, errors.New("kvstore: join with no addresses")
	}
	return f.changeView(addrs, nil)
}

// Drain removes active members from the cluster: their keys migrate to
// the remaining members' groups, and on commit they are retired — out
// of selection, probing, and repair, their IDs never reused.
func (f *Frontend) Drain(ids ...int) (MembershipReport, error) {
	if len(ids) == 0 {
		return MembershipReport{}, errors.New("kvstore: drain with no node IDs")
	}
	return f.changeView(nil, ids)
}

// changeView stages one membership change and opens its epoch change.
// Serialized with Rotate by rotateMu; only one epoch change of either
// kind may be open. A change arriving while a VIEW change is in flight
// is queued FIFO instead of refused — joins and drains issued
// back-to-back apply in order without the caller polling for 409s.
// (A change during a seed ROTATION is still refused: rotations are
// operator-paced and the queue's deferred validation semantics are
// meant for the membership pipeline, not as a general scheduler.)
func (f *Frontend) changeView(joinAddrs []string, drainIDs []int) (MembershipReport, error) {
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	if f.part.Rotating() {
		if f.memb.Changing() {
			f.pendingViews = append(f.pendingViews, pendingView{
				joinAddrs: append([]string(nil), joinAddrs...),
				drainIDs:  append([]int(nil), drainIDs...),
			})
			f.metrics.Gauge("membership_queued").Set(int64(len(f.pendingViews)))
			return MembershipReport{Queued: true}, nil
		}
		return MembershipReport{}, ErrRotationInProgress
	}
	return f.stageView(joinAddrs, drainIDs)
}

// stageView validates and stages one membership change, then opens its
// epoch change. Called under rotateMu with no change open.
func (f *Frontend) stageView(joinAddrs []string, drainIDs []int) (MembershipReport, error) {
	d := f.cfg.Replication
	// Fail fast: a joiner that cannot answer a ping now would doom the
	// fill migration. Build (and keep) its client before staging
	// anything, so a refusal leaves no trace.
	joined := make(map[string]*Client, len(joinAddrs))
	closeJoined := func() {
		for _, c := range joined {
			c.Close()
		}
	}
	for _, addr := range joinAddrs {
		c := NewClientWithConfig(addr, f.ccfg)
		if err := c.Ping(); err != nil {
			c.Close()
			closeJoined()
			return MembershipReport{}, fmt.Errorf("kvstore: join %s: node unreachable: %w", addr, err)
		}
		joined[addr] = c
	}
	oldMembers := f.memb.View().Members()
	staged, err := f.memb.StageChange(joinAddrs, drainIDs)
	if err != nil {
		closeJoined()
		return MembershipReport{}, err
	}
	members := staged.Members()
	if len(members) < d {
		f.memb.Abort()
		closeJoined()
		return MembershipReport{}, fmt.Errorf("kvstore: change leaves %d members, need >= replication %d", len(members), d)
	}
	// Grow (never shrink) the fleet and breaker state to cover the new
	// IDs before any mapping can hand them out.
	f.growFleet(staged, joined)
	// Same secret seed, new member set: only keys whose group changed
	// under the new member mapping move (how few that is depends on
	// cfg.Partitioner — the ring moves ~d/n, the dense hash nearly all).
	next, err := newMemberMapping(f.cfg.Partitioner, members, d, f.curSeed)
	if err != nil {
		f.memb.Abort()
		return MembershipReport{}, err
	}
	// Scan the union of the generations: data can only live where one
	// of them placed it. Draining nodes are scanned (their data must
	// leave); dead joiners are skipped by the breaker check.
	epoch, frac, err := f.openChange(next, unionNodes(oldMembers, members), &staged)
	if err != nil {
		f.memb.Abort()
		return MembershipReport{}, err
	}
	f.metrics.Counter("membership_changes_total").Inc()
	f.metrics.Gauge("membership_version").Set(int64(staged.Version))
	report := MembershipReport{
		Version:               staged.Version,
		Epoch:                 epoch,
		Drained:               append([]int(nil), drainIDs...),
		ExpectedMovedFraction: frac,
	}
	for _, node := range staged.Nodes {
		if node.State == membership.StateJoining {
			report.Joined = append(report.Joined, node)
		}
	}
	return report, nil
}

// growFleet extends the fleet snapshot and breaker state to cover
// every ID in the staged view. Called under rotateMu; readers load the
// old snapshot lock-free until the swap. Inflight cells are shared
// between snapshots, so counts carry over.
func (f *Frontend) growFleet(staged membership.View, joined map[string]*Client) {
	old := f.fleet.Load()
	maxID := len(old.clients) - 1
	for _, n := range staged.Nodes {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	if maxID < len(old.clients) {
		return
	}
	ns := &nodeSet{
		clients:  append([]*Client(nil), old.clients...),
		inflight: append([]*atomic.Int64(nil), old.inflight...),
		busy:     append([]*atomic.Int64(nil), old.busy...),
		addrs:    append([]string(nil), old.addrs...),
	}
	for len(ns.clients) <= maxID {
		ns.clients = append(ns.clients, nil)
		ns.inflight = append(ns.inflight, new(atomic.Int64))
		ns.busy = append(ns.busy, new(atomic.Int64))
		ns.addrs = append(ns.addrs, "")
	}
	for _, n := range staged.Nodes {
		if ns.clients[n.ID] == nil {
			c := joined[n.Addr]
			if c == nil {
				c = NewClientWithConfig(n.Addr, f.ccfg)
			}
			ns.clients[n.ID] = c
			ns.addrs[n.ID] = n.Addr
		}
	}
	f.fleet.Store(ns)
	f.health.grow(maxID + 1)
}

// applyCommittedView re-derives everything downstream of the member
// set: retired breakers for dead nodes, a fresh anti-entropy repairer,
// membership gauges, and the auto-provisioned cache size. Called under
// rotateMu.
func (f *Frontend) applyCommittedView(view membership.View) {
	members := view.Members()
	for _, n := range view.Nodes {
		if n.State == membership.StateDead {
			f.health.retire(n.ID)
		}
	}
	rep, err := f.newRepairer(members)
	if err != nil {
		log.Printf("kvstore: rebuilding repairer for view v%d: %v", view.Version, err)
	} else {
		f.repairer.Store(rep)
	}
	f.metrics.Gauge("membership_version").Set(int64(view.Version))
	f.metrics.Gauge("cluster_nodes").Set(int64(len(members)))
	f.reprovision(len(members))
}

// reprovision recomputes c* for n members and resizes the cache to it
// (when auto-provisioning is on and the cache supports Resize). In tier
// mode the target is this frontend's share of the tier's aggregate
// provision (disttier.CacheShare) rather than the whole c*.
func (f *Frontend) reprovision(n int) {
	p, ok := f.provisionParams(n)
	if !ok {
		return
	}
	cstar := p.RequiredCacheSize()
	f.metrics.Gauge("provision_cstar").Set(int64(cstar))
	if ts := f.tier; ts != nil {
		cstar = disttier.CacheShare(cstar, ts.size())
		f.metrics.Gauge("tier_cache_share").Set(int64(cstar))
	}
	if f.cache == nil {
		return
	}
	if rc, ok := f.cache.(resizableCache); ok && rc.Resize(cstar) {
		f.metrics.Counter("cache_resizes_total").Inc()
	}
	if cp, ok := f.cache.(interface{ Cap() int }); ok {
		f.metrics.Gauge("cache_capacity").Set(int64(cp.Cap()))
	}
}

// provisionParams builds the paper's Params for n members, false when
// auto-provisioning is off or the shape falls outside the model (e.g.
// n < 2 mid-experiment — the bound needs at least two nodes).
func (f *Frontend) provisionParams(n int) (core.Params, bool) {
	if f.cfg.Provision.Items <= 0 {
		return core.Params{}, false
	}
	p := core.Params{
		Nodes:       n,
		Replication: f.cfg.Replication,
		Items:       f.cfg.Provision.Items,
		KPrime:      f.cfg.Provision.KPrime,
		KOverride:   f.cfg.Provision.KOverride,
	}
	if err := p.Validate(); err != nil {
		log.Printf("kvstore: auto-provision skipped for n=%d: %v", n, err)
		return core.Params{}, false
	}
	return p, true
}

// MembershipStatus reports the current membership view and provisioning
// state.
func (f *Frontend) MembershipStatus() MembershipStatus {
	view := f.memb.Current()
	epoch, _, prev := f.part.Snapshot()
	st := MembershipStatus{
		Version:     view.Version,
		Epoch:       epoch,
		Changing:    f.memb.Changing(),
		Rotating:    prev != nil,
		Nodes:       view.Nodes,
		Members:     view.Members(),
		MemberAddrs: view.MemberAddrs(),
	}
	if p, ok := f.provisionParams(len(st.Members)); ok {
		st.CStar = p.RequiredCacheSize()
	}
	if cp, ok := f.cache.(interface{ Cap() int }); ok {
		st.CacheCapacity = cp.Cap()
	}
	f.rotateMu.Lock()
	st.QueuedChanges = len(f.pendingViews)
	f.rotateMu.Unlock()
	return st
}

// membershipHandlers returns the membership admin verbs (merged into
// AdminHandlers in rotate.go).
func (f *Frontend) membershipHandlers() map[string]http.HandlerFunc {
	writeReport := func(w http.ResponseWriter, report MembershipReport, err error) {
		switch {
		case errors.Is(err, ErrRotationInProgress) || errors.Is(err, membership.ErrChangeActive):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			w.Header().Set("Content-Type", "application/json")
			if report.Queued {
				// 202: accepted, applied after the in-flight change lands.
				w.WriteHeader(http.StatusAccepted)
			}
			json.NewEncoder(w).Encode(report)
		}
	}
	return map[string]http.HandlerFunc{
		"/join": func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			addrs := r.URL.Query()["addr"]
			if len(addrs) == 0 {
				http.Error(w, "addr parameter required", http.StatusBadRequest)
				return
			}
			report, err := f.Join(addrs...)
			writeReport(w, report, err)
		},
		"/drain": func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			var ids []int
			for _, s := range r.URL.Query()["id"] {
				id, err := strconv.Atoi(s)
				if err != nil {
					http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
					return
				}
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				http.Error(w, "id parameter required", http.StatusBadRequest)
				return
			}
			report, err := f.Drain(ids...)
			writeReport(w, report, err)
		},
		"/membership": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(f.MembershipStatus())
		},
	}
}

// migRateController adapts the migration rate to backend pushback: a
// shed (StatusBusy) move halves the rate (down to 1/16 of the
// configured base), a sustained run of clean moves doubles it back.
// Migration pressure is the one load source the frontend fully
// controls, so it yields first when the cluster is defending itself —
// "shed during migration" must slow the migration, not the clients.
type migRateController struct {
	limiter *overload.TokenBucket
	base    float64
	gauge   *metrics.Gauge
	mu      sync.Mutex
	cur     float64
	clean   int
}

const (
	migRateMinFraction   = 1.0 / 16
	migRateCleanUpStreak = 64
)

func newMigRateController(l *overload.TokenBucket, base float64, g *metrics.Gauge) *migRateController {
	if l == nil {
		return nil
	}
	g.Set(int64(base))
	return &migRateController{limiter: l, base: base, gauge: g, cur: base}
}

func (c *migRateController) onBusy() {
	c.mu.Lock()
	defer c.mu.Unlock()
	floor := c.base * migRateMinFraction
	c.cur /= 2
	if c.cur < floor {
		c.cur = floor
	}
	c.clean = 0
	c.limiter.SetRate(c.cur)
	c.gauge.Set(int64(c.cur))
}

func (c *migRateController) onClean() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur >= c.base {
		return
	}
	c.clean++
	if c.clean < migRateCleanUpStreak {
		return
	}
	c.clean = 0
	c.cur *= 2
	if c.cur > c.base {
		c.cur = c.base
	}
	c.limiter.SetRate(c.cur)
	c.gauge.Set(int64(c.cur))
}
