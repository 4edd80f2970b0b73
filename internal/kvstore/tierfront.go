package kvstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"securecache/internal/disttier"
	"securecache/internal/metrics"
)

// This file is the frontend half of the distributed cache tier
// (internal/disttier): a kvfront running in tier mode is one of k
// frontends that together protect the backends. Three things change
// versus a solo frontend:
//
//   - Cache admission is filtered to the keys this frontend is a
//     candidate for under the tier's (public, independent) hash
//     mapping — each frontend caches its own ~2/k slice of the key
//     space, so the tier's aggregate capacity covers the hot set
//     without k-fold duplication.
//   - Every response frame piggybacks a load hint (this frontend's
//     in-flight request count), which power-of-two-choices clients
//     (TierClient) compare across a key's two candidates.
//   - Auto-provisioning applies the tier-aware c* split: the paper's
//     c* is recomputed on every committed backend view change as
//     before, then divided across the tier per the DistCache analysis
//     (disttier.CacheShare), so growing the tier shrinks each
//     frontend's cache while the tier's hot-set coverage stays intact.
//
// The backend partition seed stays SECRET and per-cluster; the tier
// seed is public topology. Rotating the backend seed never moves tier
// placement (keys are mapped by KeyID, fixed across rotations), so
// each frontend rotates its backend mapping independently — the tier
// controller just issues the same Rotate to every member.

// TierConfig puts a frontend into tier mode. The zero value (nil
// pointer in FrontendConfig) means solo operation.
type TierConfig struct {
	// ID is this frontend's tier member ID (its slot in the tier view).
	ID int
	// Members lists the initial tier member IDs, including ID. Empty
	// defaults to {ID} — a tier of one, grown later via SetTierMembers
	// or the /tier admin verb.
	Members []int
	// Seed keys the tier's candidate mapping. It is PUBLIC topology
	// (every tier member and every client must share it), independent
	// of the secret backend partition seed.
	Seed uint64
}

// TierStatus is the observable tier state (the /tier admin verb's
// payload).
type TierStatus struct {
	ID      int    `json:"id"`
	Seed    uint64 `json:"seed"`
	Members []int  `json:"members"`
	// CacheShare is this frontend's tier-aware cache provision (0 when
	// auto-provisioning is off).
	CacheShare int `json:"cache_share,omitempty"`
}

// tierState is the frontend's live tier view. The map pointer is
// swapped whole on tier membership changes; the inflight counter feeds
// the load hint on every response frame.
type tierState struct {
	id       int
	seed     uint64
	m        atomic.Pointer[disttier.Map]
	inflight atomic.Int64

	invalidations *metrics.Counter
	filtered      *metrics.Counter
	sizeGauge     *metrics.Gauge
}

func newTierState(cfg *TierConfig, reg *metrics.Registry) (*tierState, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("kvstore: tier ID %d must be non-negative", cfg.ID)
	}
	members := cfg.Members
	if len(members) == 0 {
		members = []int{cfg.ID}
	}
	m, err := disttier.NewMap(members, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("kvstore: tier: %w", err)
	}
	if !m.Contains(cfg.ID) {
		return nil, fmt.Errorf("kvstore: tier members %v do not include this frontend's ID %d", members, cfg.ID)
	}
	ts := &tierState{
		id:            cfg.ID,
		seed:          cfg.Seed,
		invalidations: reg.Counter("tier_invalidations_total"),
		filtered:      reg.Counter("tier_cache_filtered_total"),
		sizeGauge:     reg.Gauge("tier_size"),
	}
	ts.m.Store(m)
	ts.sizeGauge.Set(int64(m.Size()))
	return ts, nil
}

// isCandidate reports whether this frontend should cache the key.
func (ts *tierState) isCandidate(keyID uint64) bool {
	return ts.m.Load().IsCandidate(keyID, ts.id)
}

// size returns k, the current tier width.
func (ts *tierState) size() int { return ts.m.Load().Size() }

// TierStatus reports the live tier view (zero value when not in tier
// mode).
func (f *Frontend) TierStatus() TierStatus {
	ts := f.tier
	if ts == nil {
		return TierStatus{ID: -1}
	}
	m := ts.m.Load()
	st := TierStatus{ID: ts.id, Seed: ts.seed, Members: m.IDs()}
	if p, ok := f.provisionParams(len(f.memb.Current().Members())); ok {
		st.CacheShare = disttier.CacheShare(p.RequiredCacheSize(), m.Size())
	}
	return st
}

// SetTierMembers replaces the tier member set (it must still include
// this frontend's ID) and re-derives the tier-aware cache provision.
// Entries cached for keys this frontend no longer serves age out
// naturally — admission stops, eviction does the rest.
func (f *Frontend) SetTierMembers(ids []int) error {
	ts := f.tier
	if ts == nil {
		return errors.New("kvstore: not a tier frontend")
	}
	m, err := disttier.NewMap(ids, ts.seed)
	if err != nil {
		return err
	}
	if !m.Contains(ts.id) {
		return fmt.Errorf("kvstore: tier members %v drop this frontend's ID %d (drain it instead)", ids, ts.id)
	}
	// rotateMu serializes with view commits, whose reprovision reads the
	// tier size this swap changes.
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	ts.m.Store(m)
	ts.sizeGauge.Set(int64(m.Size()))
	f.reprovision(len(f.memb.Current().Members()))
	return nil
}

// Invalidate drops the frontend's cached copy of key (and detaches any
// in-flight miss fetch so later misses refetch). TierClient sends it to
// a key's other candidate after routing a write through the first, so a
// stale cached value survives at most one round trip. Best-effort by
// design: a fetch already in flight with a pre-write backend read can
// still land after the invalidation, which the next write's invalidate
// (or eviction) cleans up.
func (f *Frontend) Invalidate(key string) {
	f.flights.Forget(key)
	f.cacheRemove(key)
	if f.tier != nil {
		f.tier.invalidations.Inc()
	}
}

// tierHandlers returns the tier admin verbs (merged into AdminHandlers
// in rotate.go): GET /tier reports the view, POST /tier?members=0,1,2
// replaces it.
func (f *Frontend) tierHandlers() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/tier": func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				if f.tier == nil {
					http.Error(w, "not a tier frontend", http.StatusNotFound)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(f.TierStatus())
			case http.MethodPost:
				raw := r.URL.Query().Get("members")
				if raw == "" {
					http.Error(w, "members parameter required", http.StatusBadRequest)
					return
				}
				var ids []int
				for _, s := range strings.Split(raw, ",") {
					id, err := strconv.Atoi(strings.TrimSpace(s))
					if err != nil {
						http.Error(w, "bad member ID: "+err.Error(), http.StatusBadRequest)
						return
					}
					ids = append(ids, id)
				}
				sort.Ints(ids)
				if err := f.SetTierMembers(ids); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(f.TierStatus())
			default:
				http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
			}
		},
	}
}
