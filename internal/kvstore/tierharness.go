package kvstore

import (
	"fmt"
	"time"

	"securecache/internal/cache"
	"securecache/internal/overload"
	"securecache/internal/partition"
)

// TierCluster is an in-process deployment of the two-layer
// architecture on loopback TCP: n backends shared by k tier frontends,
// plus a TierClient wired to all of them. It exists for the tier tests,
// the two-layer experiments, and the `secexperiments cost tier`
// baseline.
type TierCluster struct {
	Backends     []*Backend
	BackendAddrs []string
	// Frontends is indexed by tier member ID (0..k-1). A crashed
	// frontend (CrashFrontend) stays in the slice so IDs keep their
	// meaning; check Frontend != nil.
	Frontends     []*Frontend
	FrontendAddrs []string
	TierSeed      uint64
	// Client is a ready-made two-choice client over all k frontends.
	Client *TierClient
}

// TierLocalConfig configures StartTierCluster.
type TierLocalConfig struct {
	// Nodes is the number of backends; Replication is d. Required.
	Nodes       int
	Replication int
	// Frontends is k, the tier width. Required.
	Frontends int
	// PartitionSeed is the SECRET backend mapping seed (shared by all
	// frontends — they must agree on key placement).
	PartitionSeed uint64
	// TierSeed is the PUBLIC tier mapping seed.
	TierSeed uint64
	// NewCache builds one frontend's cache; called k times so each
	// frontend owns its cache (nil = cacheless frontends).
	NewCache func() cache.Cache
	// Client configures each frontend's backend transport; TierClient
	// configures the client->frontend transport.
	Client     ClientConfig
	TierClient ClientConfig
	// Remaining knobs mirror LocalConfig, applied to every frontend.
	Health         HealthConfig
	BackendLimits  overload.Limits
	FrontendLimits overload.Limits
	Rotation       RotationConfig
	Membership     MembershipConfig
	Provision      ProvisionConfig
	Partitioner    partition.Kind
}

// StartTierCluster boots the backends, the k tier frontends (every one
// holding the same tier view and the same secret backend seed), and a
// TierClient over them. Always Close the returned cluster.
func StartTierCluster(cfg TierLocalConfig) (*TierCluster, error) {
	if cfg.Nodes < 1 || cfg.Frontends < 1 {
		return nil, fmt.Errorf("kvstore: TierLocalConfig needs Nodes >= 1 and Frontends >= 1 (got %d, %d)", cfg.Nodes, cfg.Frontends)
	}
	tcl := &TierCluster{TierSeed: cfg.TierSeed}
	for i := 0; i < cfg.Nodes; i++ {
		b, addr, err := StartBackendWithLimits(i, "127.0.0.1:0", cfg.BackendLimits)
		if err != nil {
			tcl.Close()
			return nil, err
		}
		tcl.Backends = append(tcl.Backends, b)
		tcl.BackendAddrs = append(tcl.BackendAddrs, addr)
	}
	members := make([]int, cfg.Frontends)
	for i := range members {
		members[i] = i
	}
	for i := 0; i < cfg.Frontends; i++ {
		var c cache.Cache
		if cfg.NewCache != nil {
			c = cfg.NewCache()
		}
		f, addr, err := StartFrontend(FrontendConfig{
			BackendAddrs:  tcl.BackendAddrs,
			Replication:   cfg.Replication,
			PartitionSeed: cfg.PartitionSeed,
			Cache:         c,
			Client:        cfg.Client,
			Health:        cfg.Health,
			Overload:      cfg.FrontendLimits,
			Rotation:      cfg.Rotation,
			Membership:    cfg.Membership,
			Provision:     cfg.Provision,
			Partitioner:   cfg.Partitioner,
			Tier:          &TierConfig{ID: i, Members: members, Seed: cfg.TierSeed},
		}, "127.0.0.1:0")
		if err != nil {
			tcl.Close()
			return nil, err
		}
		tcl.Frontends = append(tcl.Frontends, f)
		tcl.FrontendAddrs = append(tcl.FrontendAddrs, addr)
	}
	frontends := make(map[int]string, cfg.Frontends)
	for i, addr := range tcl.FrontendAddrs {
		frontends[i] = addr
	}
	client, err := NewTierClient(TierClientConfig{
		Frontends: frontends,
		Seed:      cfg.TierSeed,
		Client:    cfg.TierClient,
	})
	if err != nil {
		tcl.Close()
		return nil, err
	}
	tcl.Client = client
	return tcl, nil
}

// RotateAll re-keys the SECRET backend mapping on every live frontend
// with the same new seed — the tier's rotation procedure. Each frontend
// migrates independently; the copies are epoch-guarded and idempotent,
// so concurrent migrators converge. Tier placement is untouched (keys
// map to frontends by KeyID, which rotation does not change).
func (tcl *TierCluster) RotateAll(newSeed uint64) error {
	for i, f := range tcl.Frontends {
		if f == nil {
			continue
		}
		if _, err := f.Rotate(newSeed); err != nil {
			return fmt.Errorf("kvstore: rotate frontend %d: %w", i, err)
		}
	}
	return nil
}

// WaitSettled polls until no live frontend has an open epoch change or
// queued view change (false on timeout).
func (tcl *TierCluster) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		settled := true
		for _, f := range tcl.Frontends {
			if f == nil {
				continue
			}
			st := f.MembershipStatus()
			if st.Changing || st.Rotating || st.QueuedChanges > 0 {
				settled = false
				break
			}
		}
		if settled {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// CrashFrontend hard-stops tier frontend id (its listener and backend
// connections close; in-flight requests die mid-air). The slot stays in
// Frontends as nil so tier IDs keep their meaning — exactly the failure
// the two-choice client must route around.
func (tcl *TierCluster) CrashFrontend(id int) {
	if id < 0 || id >= len(tcl.Frontends) || tcl.Frontends[id] == nil {
		return
	}
	tcl.Frontends[id].Close()
	tcl.Frontends[id] = nil
}

// FrontendRequestCounts returns each tier frontend's requests_total —
// the per-frontend load the two-layer experiments compare against the
// tier bound (0 for crashed frontends).
func (tcl *TierCluster) FrontendRequestCounts() []uint64 {
	counts := make([]uint64, len(tcl.Frontends))
	for i, f := range tcl.Frontends {
		if f != nil {
			counts[i] = f.Metrics().Counter("requests_total").Value()
		}
	}
	return counts
}

// BackendRequestCounts returns each backend's requests_total.
func (tcl *TierCluster) BackendRequestCounts() []uint64 {
	counts := make([]uint64, len(tcl.Backends))
	for i, b := range tcl.Backends {
		counts[i] = b.Metrics().Counter("requests_total").Value()
	}
	return counts
}

// Close shuts everything down (client, frontends, then backends).
func (tcl *TierCluster) Close() {
	if tcl.Client != nil {
		tcl.Client.Close()
	}
	for _, f := range tcl.Frontends {
		if f != nil {
			f.Close()
		}
	}
	for _, b := range tcl.Backends {
		b.Close()
	}
}
