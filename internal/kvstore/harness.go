package kvstore

import (
	"fmt"
	"time"

	"securecache/internal/cache"
	"securecache/internal/overload"
	"securecache/internal/partition"
)

// LocalCluster is an in-process deployment of the full architecture on
// loopback TCP: n backends plus one frontend. It exists for tests and
// the benchmark.
type LocalCluster struct {
	Backends     []*Backend
	BackendAddrs []string
	Frontend     *Frontend
	FrontendAddr string
	// Admin is the frontend's admin HTTP server (nil unless
	// LocalConfig.Admin was set); AdminAddr is its host:port.
	Admin     *AdminServer
	AdminAddr string
}

// LocalConfig configures StartLocalCluster.
type LocalConfig struct {
	// Nodes is the number of backends. Required.
	Nodes int
	// Replication is d. Required.
	Replication int
	// PartitionSeed is the secret mapping seed.
	PartitionSeed uint64
	// Cache is the frontend cache (nil = no cache).
	Cache cache.Cache
	// Selection is the frontend replica policy (default least-inflight).
	Selection Selection
	// Client configures the frontend's backend-client transport (zero
	// value = defaults).
	Client ClientConfig
	// Health configures the frontend's per-backend circuit breaker
	// (zero value = defaults).
	Health HealthConfig
	// BackendLimits applies server-side overload control to every
	// backend (zero value = unlimited).
	BackendLimits overload.Limits
	// FrontendLimits applies admission control to the frontend's own
	// listener (zero value = unlimited).
	FrontendLimits overload.Limits
	// RetryBudgetMax / RetryBudgetRatio configure the frontend's shared
	// retry budget (0 = defaults, RetryBudgetMax < 0 = no budget).
	RetryBudgetMax   float64
	RetryBudgetRatio float64
	// FrontendIdleTimeout drops idle frontend client connections
	// (0 = keep forever).
	FrontendIdleTimeout time.Duration
	// Rotation configures the frontend's live mapping rotation (zero
	// value = defaults).
	Rotation RotationConfig
	// WriteQuorum, HintLimit, HintDir, RepairInterval and RepairRate
	// configure the frontend's durability layer (see FrontendConfig).
	WriteQuorum    int
	HintLimit      int
	HintDir        string
	RepairInterval time.Duration
	RepairRate     float64
	// Membership and Provision configure the frontend's elastic
	// membership and auto-provisioning (see FrontendConfig).
	Membership MembershipConfig
	Provision  ProvisionConfig
	// Partitioner picks the mapping family (see FrontendConfig).
	Partitioner partition.Kind
	// Admin, when true, also starts the frontend's admin HTTP surface
	// (with the rotation and membership verbs mounted) on loopback; its
	// address is in AdminAddr.
	Admin bool
}

// StartLocalCluster boots the backends and frontend on ephemeral loopback
// ports. Always Close the returned cluster.
func StartLocalCluster(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("kvstore: LocalConfig.Nodes = %d", cfg.Nodes)
	}
	lc := &LocalCluster{}
	for i := 0; i < cfg.Nodes; i++ {
		b, addr, err := StartBackendWithLimits(i, "127.0.0.1:0", cfg.BackendLimits)
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.Backends = append(lc.Backends, b)
		lc.BackendAddrs = append(lc.BackendAddrs, addr)
	}
	f, addr, err := StartFrontend(FrontendConfig{
		BackendAddrs:     lc.BackendAddrs,
		Replication:      cfg.Replication,
		PartitionSeed:    cfg.PartitionSeed,
		Cache:            cfg.Cache,
		Selection:        cfg.Selection,
		Client:           cfg.Client,
		Health:           cfg.Health,
		Overload:         cfg.FrontendLimits,
		RetryBudgetMax:   cfg.RetryBudgetMax,
		RetryBudgetRatio: cfg.RetryBudgetRatio,
		IdleTimeout:      cfg.FrontendIdleTimeout,
		Rotation:         cfg.Rotation,
		WriteQuorum:      cfg.WriteQuorum,
		HintLimit:        cfg.HintLimit,
		HintDir:          cfg.HintDir,
		RepairInterval:   cfg.RepairInterval,
		RepairRate:       cfg.RepairRate,
		Membership:       cfg.Membership,
		Provision:        cfg.Provision,
		Partitioner:      cfg.Partitioner,
	}, "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Frontend = f
	lc.FrontendAddr = addr
	if cfg.Admin {
		admin, adminAddr, err := StartAdminWith("127.0.0.1:0", f.Metrics(),
			map[string]interface{}{"role": "frontend", "nodes": cfg.Nodes, "replication": cfg.Replication},
			f.AdminHandlers())
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.Admin = admin
		lc.AdminAddr = adminAddr
	}
	return lc, nil
}

// AddBackend boots one more backend on loopback (global ID = its index
// in Backends, matching the frontend's grow-only ID allocation when
// each new backend is joined in boot order) and returns its address.
// It does NOT join it to the frontend — call Frontend.Join with the
// returned address.
func (lc *LocalCluster) AddBackend(limits overload.Limits) (string, error) {
	b, addr, err := StartBackendWithLimits(len(lc.Backends), "127.0.0.1:0", limits)
	if err != nil {
		return "", err
	}
	lc.Backends = append(lc.Backends, b)
	lc.BackendAddrs = append(lc.BackendAddrs, addr)
	return addr, nil
}

// BackendRequestCounts returns each backend's requests_total counter —
// the per-node load the attack experiments compare.
func (lc *LocalCluster) BackendRequestCounts() []uint64 {
	counts := make([]uint64, len(lc.Backends))
	for i, b := range lc.Backends {
		counts[i] = b.Metrics().Counter("requests_total").Value()
	}
	return counts
}

// BackendShedCounts returns each backend's shed_total counter — how
// many requests its overload gate answered with StatusBusy.
func (lc *LocalCluster) BackendShedCounts() []uint64 {
	counts := make([]uint64, len(lc.Backends))
	for i, b := range lc.Backends {
		counts[i] = b.Metrics().Counter("shed_total").Value()
	}
	return counts
}

// Close shuts everything down (frontend first, then backends).
func (lc *LocalCluster) Close() {
	if lc.Admin != nil {
		lc.Admin.Close()
	}
	if lc.Frontend != nil {
		lc.Frontend.Close()
	}
	for _, b := range lc.Backends {
		b.Close()
	}
}
