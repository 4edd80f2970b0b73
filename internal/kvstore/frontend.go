package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/cache"
	"securecache/internal/hashing"
	"securecache/internal/membership"
	"securecache/internal/metrics"
	"securecache/internal/overload"
	"securecache/internal/partition"
	"securecache/internal/proto"
	"securecache/internal/repair"
	"securecache/internal/rotation"
)

// nodeSet is the frontend's immutable snapshot of its backend fleet,
// indexed by GLOBAL node ID (membership IDs are grow-only, so the
// slices only ever extend; a drained node's slot stays allocated and
// its client open until the frontend closes — epoch-tagged leftovers
// may still need purging after it recovers). Readers load the snapshot
// once per operation; growFleet swaps in a longer one under rotateMu.
// The inflight counters are shared pointers, so counts survive a swap
// and writers racing it still hit the same cell; so are the busy
// averages beside them.
type nodeSet struct {
	clients  []*Client
	inflight []*atomic.Int64
	// busy is, per node, a moving average of the inflight count the read
	// path found when it ranked the node (×busyScale). It breaks
	// least-inflight ties: see orderGroup.
	busy  []*atomic.Int64
	addrs []string
}

// busyScale is the fixed-point unit of nodeSet.busy; each sample moves
// the average 1/2^busyShift of the way to it. The shift rounds down, so
// an idle node's average decays to exactly 0.
const (
	busyScale = 256
	busyShift = 3
)

// Selection chooses how the frontend picks a replica for a GET.
type Selection string

// Replica-selection policies for the frontend.
const (
	// SelectLeastInflight sends each GET to the replica with the fewest
	// outstanding requests from this frontend — the practical analogue of
	// the analysis's least-loaded rule, and the default.
	SelectLeastInflight Selection = "least-inflight"
	// SelectRandom picks a uniformly random replica per GET.
	SelectRandom Selection = "random"
	// SelectRoundRobin rotates over the replica group per GET.
	SelectRoundRobin Selection = "round-robin"
)

// keyIDSeed converts wire keys to the uint64 IDs the partitioner and the
// cache use. It is a fixed public constant: the security of the scheme
// rests on the partition seed, not on this mapping.
const keyIDSeed = 0xfeed5eed

// KeyID maps a wire key to its 64-bit ID.
func KeyID(key string) uint64 { return hashing.Hash64(key, keyIDSeed) }

// FrontendConfig configures a Frontend.
type FrontendConfig struct {
	// BackendAddrs lists the back-end node addresses; node i is
	// BackendAddrs[i]. Required, non-empty.
	BackendAddrs []string
	// Replication is d. Required, in [1, len(BackendAddrs)].
	Replication int
	// PartitionSeed is the SECRET seed of the key -> replica-group
	// mapping. An adversary who learns it can target single nodes
	// regardless of cache size.
	PartitionSeed uint64
	// Cache is the front-end cache; nil disables caching.
	Cache cache.Cache
	// Selection picks the GET replica policy (default least-inflight).
	Selection Selection
	// Client configures per-request deadlines and retry policy for the
	// backend connections (zero value = defaults). The frontend chains
	// its retries_total counter onto Client.OnRetry. Unlike a plain
	// Client, a zero PipelineDepth here means DefaultBackendPipelineDepth:
	// each backend gets one pipelined conn. A negative depth selects the
	// lockstep conn-per-exchange transport, pooled by MaxIdleConns.
	Client ClientConfig
	// Health configures the per-backend circuit breaker (zero value =
	// defaults; FailureThreshold < 0 disables gating).
	Health HealthConfig
	// Overload configures admission control for the frontend's OWN
	// listener: excess client requests are shed with StatusBusy
	// (shed_total) and excess connections closed at accept
	// (busy_conns_rejected_total). The zero value disables gating.
	Overload overload.Limits
	// RetryBudgetMax caps the shared retry budget gating budgeted
	// backend retries across all backends: each retry spends one token,
	// each success refills RetryBudgetRatio. 0 = the overload package
	// default (10); negative = no budget (seed behavior). Suppressed
	// retries are counted in retry_budget_exhausted_total.
	RetryBudgetMax float64
	// RetryBudgetRatio is the per-success refill fraction (0 = default
	// 0.1).
	RetryBudgetRatio float64
	// IdleTimeout drops client connections that sit between requests
	// longer than this (0 = keep forever). The backend-side analogue is
	// Backend.SetIdleTimeout; without this a slow-loris client pins a
	// frontend goroutine per connection indefinitely.
	IdleTimeout time.Duration
	// Rotation configures live mapping rotation (zero value = defaults;
	// see RotationConfig in rotate.go).
	Rotation RotationConfig
	// WriteQuorum is W: how many replicas of the d-sized group must ack a
	// Set/Del before it succeeds. 0 picks the majority default ⌈(d+1)/2⌉;
	// explicit values must be in [1, Replication]. Replicas that miss a
	// quorum-successful write are caught up by hinted handoff and
	// anti-entropy (durability.go).
	WriteQuorum int
	// HintLimit caps queued handoff hints per node (0 =
	// repair.DefaultHintLimit). Overflow is dropped and left to
	// anti-entropy.
	HintLimit int
	// HintDir, when non-empty, persists hint queues to this directory so
	// buffered writes survive a frontend restart.
	HintDir string
	// RepairInterval is the anti-entropy pass cadence (0 =
	// DefaultRepairInterval; negative disables the background repairer —
	// RunRepairPass still works on demand).
	RepairInterval time.Duration
	// RepairRate caps anti-entropy repair writes per second (0 =
	// DefaultRepairRate; negative = unlimited, for tests).
	RepairRate float64
	// Membership tunes live join/drain view changes (zero value =
	// defaults; see MembershipConfig in membership.go).
	Membership MembershipConfig
	// Provision enables automatic cache re-provisioning: on every
	// committed view change the frontend recomputes the paper's
	// c* = n·(ln ln n / ln d) + n·k′ + 1 from the new member count and
	// resizes its cache to it (when the cache supports Resize). Zero
	// value (Items == 0) disables auto-provisioning.
	Provision ProvisionConfig
	// Partitioner picks the key->group mapping family for live
	// membership: partition.KindHash (default) rebuilds the dense hash on
	// every view change (moves nearly all keys), partition.KindRing hashes
	// members onto a consistent-hash ring so a ±1-member view change
	// moves only ~d/n of the key space. Both keep the d-replica draw the
	// load analysis needs; seed rotation reshuffles ~everything under
	// either (that is the point of rotating).
	Partitioner partition.Kind
	// Tier puts this frontend into distributed-tier mode (see
	// tierfront.go); nil means solo operation.
	Tier *TierConfig
}

// DefaultBackendPipelineDepth is the in-flight window of the pipelined
// conn a frontend keeps to each backend when FrontendConfig.Client
// leaves PipelineDepth zero. Every miss, quorum write, hint replay,
// repair scan and probe to that backend shares the conn. A frontend puts
// at most one frame per client request on a given backend's conn, so
// the window only fills once a frontend has more requests in flight
// than this, and then it pushes back on them.
const DefaultBackendPipelineDepth = 128

// Frontend is the paper's front end: it owns the cache and the secret
// partition mapping, serves cache hits directly, and forwards misses to
// the key's replica group. It speaks the same wire protocol as backends,
// so clients are oblivious.
type Frontend struct {
	cfg  FrontendConfig
	part *rotation.EpochPartitioner
	// fleet is the global-ID-indexed backend set; memb is the versioned
	// membership view it mirrors. ccfg is the resolved client config,
	// kept so nodes joining later get the same transport policy.
	fleet     atomic.Pointer[nodeSet]
	memb      *membership.Tracker
	ccfg      ClientConfig
	rrState   atomic.Uint64
	randState atomic.Uint64
	metrics   *metrics.Registry
	health    *healthTracker
	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// srv is the frontend's own listener: connections and admission
	// (server.go). retryBudget is shared by its backend clients.
	srv         *connServer
	retryBudget *overload.RetryBudget

	// cache is the concurrency-safe view of cfg.Cache (nil when caching
	// is disabled): sharded caches are used directly, single-threaded
	// policies get wrapped behind one mutex. flights coalesces concurrent
	// misses on the same key into one backend fetch. fills orders cache
	// fills against writes (cachePut).
	cache   syncCache
	flights flightGroup
	fills   [fillStripes]fillStripe

	// Hot-path counters, resolved once at construction. Registry lookups
	// take a mutex and hash the name; at cache-hit rates that lookup was
	// a measurable fraction of the entire request.
	requestsTotal *metrics.Counter
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	setsTotal     *metrics.Counter
	delsTotal     *metrics.Counter
	backendErrs   *metrics.Counter
	backendBusy   *metrics.Counter
	coalesced     *metrics.Counter
	casTotal      *metrics.Counter
	casConflicts  *metrics.Counter

	// Epoch-change state (see remap.go). rotMu is the epoch write
	// barrier: Set/Del hold it shared across their backend I/O, the remap
	// engine takes it exclusively around each epoch flip, so no write can
	// span the old and new mapping. tombs records keys deleted while a
	// rotation is open so a migration copy cannot resurrect them; tombMu
	// is deliberately held across moveEntry's backend I/O (a Del blocks
	// until the in-flight copy lands, then removes it everywhere).
	rotMu    sync.RWMutex
	tombMu   sync.Mutex
	tombs    map[string]struct{}
	rotateMu sync.Mutex // serializes Rotate/Join/Drain; guards migrator, curSeed
	migrator *rotation.Migrator
	curSeed  uint64 // the live secret seed; membership changes re-map with it
	rotStop  chan struct{}
	rotWG    sync.WaitGroup

	// Durability state (durability.go): the logical-version clock behind
	// every replicated write, the resolved write quorum, hinted handoff,
	// the anti-entropy repairer, and the async read-repair machinery.
	verClock    atomic.Uint64
	writeQuorum int
	hints       *repair.HintQueue
	repairer    atomic.Pointer[repair.Repairer] // rebuilt on view commit
	repairedMu  sync.Mutex
	repaired    map[string]struct{}
	repairJobs  chan readRepairJob

	// Tier state (tierfront.go): nil when not in tier mode. pendingViews
	// is the FIFO of membership changes queued behind an in-flight one
	// (remap.go stages them); guarded by rotateMu.
	tier         *tierState
	pendingViews []pendingView
}

// newMemberMapping builds the key->group mapping over a member-ID set
// under the given seed, honoring the configured partitioner family.
// Every mapping speaks GLOBAL member IDs (Group returns IDs, Nodes() is
// the member count), the shape the membership/rotation machinery
// assumes:
//
//   - KindHash (default): the paper's dense hash over len(members)
//     slots wrapped in a Remap to member IDs. Any view change rebuilds
//     it from scratch and moves nearly every key.
//   - KindRing: members hashed onto a consistent-hash ring under their
//     global IDs, so a join or drain moves only the ~d/n of keys whose
//     replica sets actually touch the changed member.
//
// KindJump is registry-only (dense indices shift on mid-list drains),
// so it is rejected here along with anything else unknown.
func newMemberMapping(kind partition.Kind, members []int, d int, seed uint64) (partition.Partitioner, error) {
	switch kind {
	case "", partition.KindHash:
		return partition.NewRemap(partition.NewHash(len(members), d, seed), members), nil
	case partition.KindRing:
		return partition.NewMemberRing(members, d, seed, 0), nil
	default:
		return nil, fmt.Errorf("kvstore: partitioner kind %q not usable for live membership (want %q or %q)", kind, partition.KindHash, partition.KindRing)
	}
}

// NewFrontend validates cfg and returns a Frontend (not yet serving).
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	n := len(cfg.BackendAddrs)
	if n == 0 {
		return nil, errors.New("kvstore: frontend needs at least one backend")
	}
	if cfg.Replication < 1 || cfg.Replication > n {
		return nil, fmt.Errorf("kvstore: replication %d out of [1, %d]", cfg.Replication, n)
	}
	switch cfg.Selection {
	case "", SelectLeastInflight, SelectRandom, SelectRoundRobin:
	default:
		return nil, fmt.Errorf("kvstore: unknown selection policy %q", cfg.Selection)
	}
	if cfg.Selection == "" {
		cfg.Selection = SelectLeastInflight
	}
	quorum, err := writeQuorumFor(cfg.WriteQuorum, cfg.Replication)
	if err != nil {
		return nil, err
	}
	hints, err := repair.NewHintQueue(cfg.HintLimit, cfg.HintDir)
	if err != nil {
		return nil, err
	}
	if err := cfg.Provision.validate(); err != nil {
		return nil, err
	}
	// The boot mapping speaks global node IDs — the same shape every
	// post-membership-change mapping has (see newMemberMapping).
	bootIDs := make([]int, n)
	for i := range bootIDs {
		bootIDs[i] = i
	}
	bootMap, err := newMemberMapping(cfg.Partitioner, bootIDs, cfg.Replication, cfg.PartitionSeed)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:         cfg,
		part:        rotation.NewEpochPartitioner(bootMap),
		memb:        membership.NewTracker(cfg.BackendAddrs),
		curSeed:     cfg.PartitionSeed,
		metrics:     metrics.NewRegistry(),
		tombs:       make(map[string]struct{}),
		rotStop:     make(chan struct{}),
		probeStop:   make(chan struct{}),
		writeQuorum: quorum,
		hints:       hints,
		repaired:    make(map[string]struct{}),
		repairJobs:  make(chan readRepairJob, readRepairQueueCap),
	}
	f.metrics.Gauge("partition_epoch").Set(1)
	if cfg.Tier != nil {
		ts, err := newTierState(cfg.Tier, f.metrics)
		if err != nil {
			return nil, err
		}
		f.tier = ts
	}
	f.cache = newSyncCache(cfg.Cache)
	f.requestsTotal = f.metrics.Counter("requests_total")
	f.cacheHits = f.metrics.Counter("cache_hits_total")
	f.cacheMisses = f.metrics.Counter("cache_misses_total")
	f.setsTotal = f.metrics.Counter("sets_total")
	f.delsTotal = f.metrics.Counter("dels_total")
	f.backendErrs = f.metrics.Counter("backend_errors_total")
	f.backendBusy = f.metrics.Counter("backend_busy_total")
	f.coalesced = f.metrics.Counter("coalesced_misses_total")
	f.casTotal = f.metrics.Counter("cas_total")
	f.casConflicts = f.metrics.Counter("cas_conflicts_total")
	f.randState.Store(cfg.PartitionSeed ^ 0x9e3779b97f4a7c15)
	f.health = newHealthTracker(n, cfg.Health, f.metrics)
	f.srv = newConnServer("frontend", f.metrics, cfg.Overload)
	f.srv.idleTimeout.Store(int64(cfg.IdleTimeout))
	// Members is exempt beside Ping/Stats: kvload refreshes its address
	// list on exactly that path while the data plane sheds.
	f.srv.handle = f.handle
	f.srv.exempt = ops(proto.OpPing, proto.OpStats, proto.OpMembers)
	f.srv.fast = f.fast
	f.srv.fastOps = ops(proto.OpGet)
	if f.tier != nil {
		f.srv.load = &f.tier.inflight
	}
	ccfg := cfg.Client
	if ccfg.PipelineDepth == 0 {
		ccfg.PipelineDepth = DefaultBackendPipelineDepth
	}
	retries := f.metrics.Counter("retries_total")
	userOnRetry := ccfg.OnRetry
	ccfg.OnRetry = func() {
		retries.Inc()
		if userOnRetry != nil {
			userOnRetry()
		}
	}
	// One retry budget shared by every backend client: overload is a
	// cluster-level condition, so the damping must be cluster-level too.
	if ccfg.RetryBudget == nil && cfg.RetryBudgetMax >= 0 {
		ccfg.RetryBudget = overload.NewRetryBudget(cfg.RetryBudgetMax, cfg.RetryBudgetRatio)
	}
	f.retryBudget = ccfg.RetryBudget
	suppressed := f.metrics.Counter("retry_budget_exhausted_total")
	userOnSuppressed := ccfg.OnRetrySuppressed
	ccfg.OnRetrySuppressed = func() {
		suppressed.Inc()
		if userOnSuppressed != nil {
			userOnSuppressed()
		}
	}
	f.ccfg = ccfg
	ns := &nodeSet{
		clients:  make([]*Client, n),
		inflight: make([]*atomic.Int64, n),
		busy:     make([]*atomic.Int64, n),
		addrs:    append([]string(nil), cfg.BackendAddrs...),
	}
	for i, addr := range cfg.BackendAddrs {
		ns.clients[i] = NewClientWithConfig(addr, ccfg)
		ns.inflight[i] = new(atomic.Int64)
		ns.busy[i] = new(atomic.Int64)
	}
	f.fleet.Store(ns)
	rep, err := f.newRepairer(bootIDs)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		f.repairer.Store(rep)
	}
	f.metrics.Gauge("membership_version").Set(1)
	f.metrics.Gauge("cluster_nodes").Set(int64(n))
	f.reprovision(n)
	if f.health != nil {
		f.probeWG.Add(1)
		go f.probeLoop()
	}
	f.rotWG.Add(2)
	go f.hintDrainLoop()
	go f.readRepairWorker()
	// The repair loop starts whenever anti-entropy is enabled, even if
	// the boot cluster is too small to pair: a later join rebuilds the
	// repairer and the loop picks it up on its next tick.
	if interval := cfg.RepairInterval; interval >= 0 {
		if interval == 0 {
			interval = DefaultRepairInterval
		}
		f.rotWG.Add(1)
		go f.repairLoop(interval)
	}
	return f, nil
}

// probeLoop pings open backends at the configured cadence; a successful
// ping half-opens the breaker so the next real request can close it.
func (f *Frontend) probeLoop() {
	defer f.probeWG.Done()
	ticker := time.NewTicker(f.health.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.probeStop:
			return
		case <-ticker.C:
			ns := f.fleet.Load()
			for _, node := range f.health.openNodes() {
				if node < len(ns.clients) && ns.clients[node].Ping() == nil {
					f.health.onProbeSuccess(node)
				}
			}
		}
	}
}

// Metrics exposes the frontend's registry ("requests_total",
// "cache_hits_total", "cache_misses_total", "backend_errors_total", ...).
func (f *Frontend) Metrics() *metrics.Registry { return f.metrics }

// SetIdleTimeout bounds how long a client connection may sit between
// requests before the frontend drops it (0 = forever). Takes effect on
// each connection's next read.
func (f *Frontend) SetIdleTimeout(d time.Duration) { f.srv.idleTimeout.Store(int64(d)) }

// Group returns the replica group of a wire key (exposed for tests and
// the livecluster example, which needs ground truth).
func (f *Frontend) Group(key string) []int { return f.part.Group(KeyID(key)) }

// cacheEntry encodes (key, version, value) so hash collisions on KeyID
// cannot serve the wrong key's data and versioned reads can answer from
// cache: [uint16 keylen][key][uint64 ver][value]. Version 0 means the
// fill path did not learn one (the batch read); plain Gets serve it,
// versioned reads treat it as a miss.
func encodeEntry(key string, ver uint64, value []byte) []byte {
	buf := make([]byte, 2+len(key)+8+len(value))
	binary.BigEndian.PutUint16(buf, uint16(len(key)))
	copy(buf[2:], key)
	binary.BigEndian.PutUint64(buf[2+len(key):], ver)
	copy(buf[2+len(key)+8:], value)
	return buf
}

func decodeEntry(key string, blob []byte) ([]byte, uint64, bool) {
	if len(blob) < 2 {
		return nil, 0, false
	}
	klen := int(binary.BigEndian.Uint16(blob))
	if len(blob) < 2+klen+8 || string(blob[2:2+klen]) != key {
		return nil, 0, false
	}
	return blob[2+klen+8:], binary.BigEndian.Uint64(blob[2+klen:]), true
}

func (f *Frontend) cacheGet(key string) ([]byte, uint64, bool) {
	if f.cache == nil {
		return nil, 0, false
	}
	blob, ok := f.cache.Get(KeyID(key))
	if !ok {
		return nil, 0, false
	}
	return decodeEntry(key, blob)
}

// fillStripes is how many locks order cache fills against writes. A
// miss reads its key's stripe generation before asking a replica, and
// fills only if no write in the stripe has touched the cache since; a
// write bumps the generation and updates the cache under the same lock.
// So a fill never lands over a write acked while it was in flight.
const fillStripes = 256

type fillStripe struct {
	mu  sync.Mutex
	gen atomic.Uint64
}

func (f *Frontend) fillGen(key string) uint64 {
	if f.cache == nil {
		return 0
	}
	return f.fills[KeyID(key)%fillStripes].gen.Load()
}

// cachePut fills the cache with a replica's answer read after fillGen
// returned gen.
func (f *Frontend) cachePut(key string, gen, ver uint64, value []byte) {
	if f.cache == nil {
		return
	}
	id := KeyID(key)
	// Tier admission filter: only cache keys this frontend is a candidate
	// for — no client routes the others here, so caching them would only
	// waste the (tier-split) c* budget.
	if ts := f.tier; ts != nil && !ts.isCandidate(id) {
		ts.filtered.Inc()
		return
	}
	blob := encodeEntry(key, ver, value)
	st := &f.fills[id%fillStripes]
	st.mu.Lock()
	if st.gen.Load() == gen {
		f.cache.Put(id, blob)
	}
	st.mu.Unlock()
}

// cacheWrote applies a decided write: blob (an encodeEntry) refreshes
// the entry only if cached — a write must not evict a popular entry for
// a cold key — and nil drops it. Both void every fill read before.
func (f *Frontend) cacheWrote(key string, blob []byte) {
	if f.cache == nil {
		return
	}
	id := KeyID(key)
	st := &f.fills[id%fillStripes]
	st.mu.Lock()
	st.gen.Add(1)
	if blob != nil {
		f.cache.PutIfPresent(id, blob)
	} else {
		f.cache.Remove(id)
	}
	st.mu.Unlock()
}

func (f *Frontend) cacheRemove(key string) { f.cacheWrote(key, nil) }

// orderedReplicas returns the key's current-epoch replica group ordered
// by the configured selection policy (first entry = first choice).
func (f *Frontend) orderedReplicas(key string) []int {
	return f.orderGroup(f.part.GroupAppend(nil, KeyID(key)))
}

// groupBufs recycles the replica-group scratch of the per-request read
// and write paths. A local [8]int would be the natural buffer, but it
// reaches GroupAppend through the Partitioner interface, so the compiler
// moves it to the heap on every call; pooling keeps a miss and a write
// free of group allocations. Groups above 8 replicas still work — the
// append simply outgrows the buffer.
var groupBufs = sync.Pool{New: func() any { return new([8]int) }}

// orderGroup orders one replica group in place by the configured
// selection policy and returns it. The caller owns group; both the
// single- and dual-epoch read paths (rotate.go) order through here.
func (f *Frontend) orderGroup(group []int) []int {
	switch f.cfg.Selection {
	case SelectRandom:
		// Stateless Fisher-Yates driven by an atomic splitmix stream.
		for i := len(group) - 1; i > 0; i-- {
			j := int(f.nextRand() % uint64(i+1))
			group[i], group[j] = group[j], group[i]
		}
	case SelectRoundRobin:
		// Rotate left by shift with three reversals.
		shift := int(f.rrState.Add(1) % uint64(len(group)))
		slices.Reverse(group[:shift])
		slices.Reverse(group[shift:])
		slices.Reverse(group)
	default: // SelectLeastInflight
		// Selection sort by inflight count (d is tiny). Ties go to the
		// replica that has lately been less busy, then to group order. A
		// fast backend hop leaves most ranks with nothing in flight, and
		// group order alone then piled those ties onto each key's first
		// replica. A lone caller still sees every average at 0, so each
		// key keeps one replica, as in the paper's model.
		ns := f.fleet.Load()
		for _, node := range group {
			// A racy read-modify-write: a lost sample only slows the
			// average a little.
			b := ns.busy[node]
			avg := b.Load()
			b.Store(avg + (ns.inflight[node].Load()*busyScale-avg)>>busyShift)
		}
		less := func(a, b int) bool {
			na, nb := ns.inflight[a].Load(), ns.inflight[b].Load()
			return na < nb || na == nb && ns.busy[a].Load() < ns.busy[b].Load()
		}
		for i := 0; i < len(group); i++ {
			best := i
			for j := i + 1; j < len(group); j++ {
				if less(group[j], group[best]) {
					best = j
				}
			}
			group[i], group[best] = group[best], group[i]
		}
	}
	// Health gating: backends with an open breaker are demoted to last
	// resort. The partition is stable on both sides, so the policy order
	// is kept among healthy replicas — and among open ones if all are
	// down: each healthy node moves left past the demoted run before it.
	if f.health != nil {
		healthy := 0
		for i, node := range group {
			if f.health.healthy(node) {
				copy(group[healthy+1:i+1], group[healthy:i])
				group[healthy] = node
				healthy++
			}
		}
	}
	return group
}

func (f *Frontend) nextRand() uint64 {
	for {
		old := f.randState.Load()
		next := old + 0x9e3779b97f4a7c15
		if f.randState.CompareAndSwap(old, next) {
			z := next
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
	}
}

// Get serves a read: cache first, then the replica group in policy order,
// failing over across replicas on transport errors.
func (f *Frontend) Get(key string) ([]byte, error) {
	f.requestsTotal.Inc()
	if v, _, ok := f.cacheGet(key); ok {
		f.cacheHits.Inc()
		return v, nil
	}
	f.cacheMisses.Inc()
	return f.coalescedFetch(key)
}

// GetV serves a versioned read: like Get, but the entry's logical
// version rides along so CAS callers can learn the expectation for
// their swap (and the consistency checker can compare replica copies)
// without a side channel. A tombstone reports (nil, tombVer, true,
// ErrNotFound) — "deleted at tombVer" — while a clean miss reports ver
// 0. Cached entries answer only when the fill path recorded a real
// version; a version-less cache fill (the batch path) falls through to
// the replicas, which refreshes the cache with the version attached.
func (f *Frontend) GetV(key string) (value []byte, ver uint64, tomb bool, err error) {
	f.requestsTotal.Inc()
	if v, cver, ok := f.cacheGet(key); ok && cver != 0 {
		f.cacheHits.Inc()
		return v, cver, false, nil
	}
	f.cacheMisses.Inc()
	v, ver, err := f.fetchReplicasVersioned(key)
	switch {
	case err == nil:
		return v, ver, false, nil
	case errors.Is(err, ErrNotFound):
		// errDeleted (tombstone authority) and the dual-epoch path both
		// funnel here; a non-zero version marks the authoritative delete.
		return nil, ver, ver != 0, ErrNotFound
	default:
		return nil, 0, false, err
	}
}

// coalescedFetch routes a cache miss through the singleflight group:
// concurrent misses on one key become one replica fetch whose result
// (value, not-found, or tombstone miss) every waiter shares. The leader
// runs the full fetchReplicasVersioned path, so dual-epoch fallback, cache
// fill, and read-repair scheduling all still happen — once per flight
// instead of once per caller.
//
// Coalescing applies only when a cache is configured. A cacheless
// frontend is the pure partition router of the paper's analysis — every
// read reaches a backend, and the Eq. 10 experiments measure that
// realized per-backend load directly. Collapsing simultaneous same-key
// reads there would thin out exactly the independent samples
// least-inflight spreading and the load-bound measurements rely on. With
// a cache, a repeated-miss storm on one key is the cache-stampede case,
// and one fetch per storm is the behavior that protects the backends.
func (f *Frontend) coalescedFetch(key string) ([]byte, error) {
	if f.cache == nil {
		v, _, err := f.fetchReplicasVersioned(key)
		return v, err
	}
	v, err, shared := f.flights.Do(key, func() ([]byte, error) {
		v, _, err := f.fetchReplicasVersioned(key)
		return v, err
	})
	if shared {
		f.coalesced.Inc()
	}
	return v, err
}

// fetchGroupVersioned is the failover read loop over one ordered replica
// list, shared by the single- and dual-epoch read paths (rotate.go), and
// returns the winning replica's version. It carries no request-level
// instrumentation (no requests_total, no cache hit/miss counts) — callers
// have already accounted for the request — but does fill the cache and
// feed the health tracker.
// The read stays O(1) in the common case — the first replica holding a
// live value answers — but a clean miss no longer short-circuits:
//
//   - A live value wins immediately. Replicas earlier in the order that
//     answered a clean miss were divergent (e.g. restarted empty); they
//     are queued for async read repair so the next read finds them whole.
//   - A tombstone is an authoritative miss (errDeleted): the key was
//     deleted at that version, and siblings cannot override it.
//   - A clean miss only counts once every replica has been consulted —
//     one empty replica must not mask the key held by its siblings.
//   - Transport failures fail over as before, and only when NO replica
//     gave a definite answer does the read fail.
func (f *Frontend) fetchGroupVersioned(key string, ordered []int) ([]byte, uint64, error) {
	var lastErr error
	var empty []int // replicas that answered a clean miss before a hit
	gen := f.fillGen(key)
	ns := f.fleet.Load()
	for _, node := range ordered {
		ns.inflight[node].Add(1)
		v, ver, tomb, err := ns.clients[node].GetV(key)
		ns.inflight[node].Add(-1)
		switch {
		case err == nil:
			f.health.onSuccess(node)
			if h := testHooks.beforeFill.Load(); h != nil {
				(*h)(key)
			}
			f.cachePut(key, gen, ver, v)
			f.scheduleReadRepair(key, empty, v, ver)
			return v, ver, nil
		case errors.Is(err, ErrNotFound):
			f.health.onSuccess(node)
			if tomb && !testHooks.disableTombAuthority.Load() {
				return nil, ver, errDeleted
			}
			empty = append(empty, node)
		default:
			f.noteBackendError(node, err)
			lastErr = err
		}
	}
	if len(empty) > 0 {
		return nil, 0, ErrNotFound
	}
	return nil, 0, fmt.Errorf("kvstore: all replicas failed for %q: %w", key, lastErr)
}

// noteBackendError records a failed backend exchange. A StatusBusy shed
// is a fail-over signal, NOT a breaker failure: the node is alive and
// protecting itself, and tripping its breaker would take capacity away
// exactly when the cluster is short of it — busy even counts as proof of
// life. Transport failures feed the breaker as before.
func (f *Frontend) noteBackendError(node int, err error) {
	if errors.Is(err, ErrBusy) {
		f.health.onSuccess(node)
		f.backendBusy.Inc()
		return
	}
	f.health.onFailure(node)
	f.backendErrs.Inc()
}

// MGet serves a batch read: cached keys are answered locally, the misses
// are grouped by their first-choice replica and fetched with one OpMGet
// per backend. Per-node failures fall back to single-key Gets (which
// fail over across replicas). Results are parallel to keys.
func (f *Frontend) MGet(keys []string) ([]proto.MGetResult, error) {
	f.requestsTotal.Inc()
	results := make([]proto.MGetResult, len(keys))
	gens := make([]uint64, len(keys))
	var misses []int // indices into keys not answered by the cache
	for i, key := range keys {
		if v, _, ok := f.cacheGet(key); ok {
			f.cacheHits.Inc()
			results[i] = proto.MGetResult{Found: true, Value: v}
			continue
		}
		f.cacheMisses.Inc()
		misses = append(misses, i)
		gens[i] = f.fillGen(key)
	}
	// failover answers keys[i] through the single-key read path.
	failover := func(i int) error {
		v, err := f.coalescedFetch(keys[i])
		switch {
		case err == nil:
			results[i] = proto.MGetResult{Found: true, Value: v}
		case !errors.Is(err, ErrNotFound):
			return err
		}
		return nil
	}
	// During a rotation the batch fast path cannot be trusted: an
	// un-migrated key is absent from its new group, and OpMGet has no
	// old-generation fallback (Found == false is a valid batch answer,
	// not an error to fail over on). Route misses through the dual-epoch
	// single-key path instead; the batch optimization returns when the
	// rotation commits.
	if f.part.Rotating() {
		for _, i := range misses {
			if err := failover(i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	missIdx := make(map[int][]int) // backend node -> indices into keys
	for _, i := range misses {
		node := f.orderedReplicas(keys[i])[0]
		missIdx[node] = append(missIdx[node], i)
	}
	ns := f.fleet.Load()
	for node, idxs := range missIdx {
		batch := make([]string, len(idxs))
		for j, i := range idxs {
			batch[j] = keys[i]
		}
		ns.inflight[node].Add(int64(len(batch)))
		fetched, err := ns.clients[node].MGet(batch)
		ns.inflight[node].Add(-int64(len(batch)))
		if err != nil {
			// Batch path failed (node down mid-flight, or the node shed
			// the batch): recover per key through the shared failover
			// loop. Not through f.Get — the batch already counted
			// requests_total and the per-key cache misses; re-entering
			// the instrumented path would double them on exactly the
			// counters `secctl guard` watches.
			f.noteBackendError(node, err)
			for _, i := range idxs {
				if err := failover(i); err != nil {
					return nil, err
				}
			}
			continue
		}
		f.health.onSuccess(node)
		for j, i := range idxs {
			if !fetched[j].Found {
				// A batch miss is one replica's opinion: the node may have
				// restarted empty while its siblings still hold the key.
				// Confirm absence through the failover read (which also
				// schedules read repair for the empty replica) before
				// reporting it.
				if err := failover(i); err != nil {
					return nil, err
				}
				continue
			}
			results[i] = fetched[j]
			// The batch protocol carries no versions; fill at version 0
			// ("unknown") — plain Gets serve it, versioned reads refresh it.
			f.cachePut(keys[i], gens[i], 0, fetched[j].Value)
		}
	}
	return results, nil
}

// CacheStats returns the cache's hit/miss counters (zero Stats when no
// cache is configured).
func (f *Frontend) CacheStats() cache.Stats {
	if f.cache == nil {
		return cache.Stats{}
	}
	return f.cache.Stats()
}

// fast answers a cache-hit GET without blocking (see connServer). A
// miss counts nothing here: handle serves it, and counts it, once.
func (f *Frontend) fast(req *proto.Request, _ *[]byte) *proto.Response {
	v, _, ok := f.cacheGet(req.Key)
	if !ok {
		return nil
	}
	f.requestsTotal.Inc()
	f.cacheHits.Inc()
	return reply(proto.StatusOK, v)
}

// handle dispatches one wire request. Payloads are fresh or cache-owned
// slices, so the scratch buffer goes unused.
func (f *Frontend) handle(req *proto.Request, _ *[]byte) *proto.Response {
	switch req.Op {
	case proto.OpGet:
		v, err := f.Get(req.Key)
		if err != nil {
			return replyErr(req.Op, err)
		}
		return reply(proto.StatusOK, v)
	case proto.OpGetV:
		v, ver, tomb, err := f.GetV(req.Key)
		switch {
		case tomb:
			payload, _ := proto.EncodeGetVPayload(ver, nil)
			return reply(proto.StatusNotFound, payload)
		case err != nil:
			return replyErr(req.Op, err)
		}
		payload, err := proto.EncodeGetVPayload(ver, v)
		if err != nil {
			return errResponse("frontend", req.Op, err)
		}
		return reply(proto.StatusOK, payload)
	case proto.OpSet:
		ver, err := f.SetV(req.Key, req.Value)
		return writeResponse(req.Op, ver, err)
	case proto.OpDel:
		ver, err := f.DelV(req.Key)
		return writeResponse(req.Op, ver, err)
	case proto.OpCas:
		if req.Ver != 0 {
			// The frontend owns the version clock for replicated writes; a
			// client-chosen version could regress it.
			return errResponse("frontend", req.Op, errors.New("explicit CAS version reserved for backend writes"))
		}
		ver, err := f.Cas(req.Key, req.Value, req.CasExpect)
		return writeResponse(req.Op, ver, err)
	case proto.OpMGet:
		results, err := f.MGet(req.Keys)
		if err != nil {
			return replyErr(req.Op, err)
		}
		payload, err := proto.EncodeMGetPayload(results)
		if err != nil {
			return errResponse("frontend", req.Op, err)
		}
		return reply(proto.StatusOK, payload)
	case proto.OpStats:
		blob, err := f.metrics.Snapshot()
		if err != nil {
			return errResponse("frontend", req.Op, err)
		}
		return reply(proto.StatusOK, blob)
	case proto.OpMembers:
		blob, err := json.Marshal(f.MembershipStatus())
		if err != nil {
			return errResponse("frontend", req.Op, err)
		}
		return reply(proto.StatusOK, blob)
	case proto.OpInvalidate:
		f.Invalidate(req.Key)
		return reply(proto.StatusOK, nil)
	case proto.OpPing:
		return reply(proto.StatusOK, nil)
	default:
		return errResponse("frontend", req.Op, errors.New("unsupported op"))
	}
}

// Serve accepts client connections on l until Close.
func (f *Frontend) Serve(l net.Listener) error { return f.srv.serve(l) }

// Close stops serving and releases backend connections.
func (f *Frontend) Close() error {
	// The listener closes before anything below can block: the accept
	// loop is gone from this point, and a port left bound behind it
	// would take connections nobody answers.
	first, err := f.srv.close()
	if !first {
		return nil
	}
	close(f.probeStop)
	f.probeWG.Wait()
	// Stop any in-flight migration before the backend clients close. An
	// interrupted rotation stays open (dual-epoch state is durable in the
	// stores' epoch tags); a restart re-observes the skew and re-rotates.
	close(f.rotStop)
	f.rotWG.Wait()
	for _, c := range f.fleet.Load().clients {
		c.Close()
	}
	return err
}

// StartFrontend listens on addr and serves on a background goroutine,
// returning the frontend and its bound address.
func StartFrontend(cfg FrontendConfig, addr string) (*Frontend, string, error) {
	f, err := NewFrontend(cfg)
	if err != nil {
		return nil, "", err
	}
	bound, err := f.srv.listenAndServe(addr)
	if err != nil {
		f.Close()
		return nil, "", err
	}
	return f, bound, nil
}
