// Command kvfront runs the front-end server: the component that owns the
// secret partition mapping and the popularity-based cache, and forwards
// misses to the back-end replica groups.
//
// The -cache-size flag is where the paper's result becomes operational:
// size it with `secctl bound` (c* = ceil(n·k + 1)) and no adversarial client
// can push any backend above the even share.
//
// With -tier-id the instance joins a distributed frontend tier: k
// kvfront processes share the backends and the SECRET partition seed,
// while a PUBLIC -tier-seed maps each key to two candidate frontends.
// The instance then only caches keys it is a candidate for, piggybacks
// its load on every response frame, and honors INVALIDATE — the pieces
// the power-of-two-choices tier client needs.
//
// Usage:
//
//	kvfront -listen 127.0.0.1:7000 \
//	        -backends 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	        -replication 2 -cache lfu -cache-size 16 -seed 0xsecret
//	kvfront -listen 127.0.0.1:7000 -backends ... -seed 0xsecret \
//	        -tier-id 0 -tier-members 0,1,2 -tier-seed 42   # tier member 0 of 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"securecache/internal/cache"
	"securecache/internal/core"
	"securecache/internal/kvstore"
	"securecache/internal/overload"
	"securecache/internal/partition"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7000", "listen address")
		backends    = flag.String("backends", "", "comma-separated backend addresses (node order matters)")
		repl        = flag.Int("replication", 3, "replication factor d")
		seed        = flag.Uint64("seed", 0, "SECRET partition seed (keep it out of client hands)")
		cacheKind   = flag.String("cache", "lfu", "cache policy: lru | lfu | slru | tinylfu | arc | none")
		cacheSize   = flag.Int("cache-size", 0, "cache entries; 0 = auto-provision c* from n and d")
		cacheShards = flag.Int("cache-shards", -1, "cache shard count (power of two): -1 = auto-size for the machine, 1 = unsharded")
		selection   = flag.String("selection", "least-inflight", "replica selection: least-inflight | random | round-robin")
		admin       = flag.String("admin", "", "optional HTTP admin address (/healthz, /metrics, /info)")

		dialTimeout  = flag.Duration("dial-timeout", kvstore.DefaultDialTimeout, "backend dial timeout (negative = none)")
		readTimeout  = flag.Duration("read-timeout", kvstore.DefaultReadTimeout, "backend per-request read deadline (negative = none)")
		writeTimeout = flag.Duration("write-timeout", kvstore.DefaultWriteTimeout, "backend per-request write deadline (negative = none)")
		retries      = flag.Int("retries", kvstore.DefaultMaxRetries, "budgeted transport retries per backend request (negative = none)")
		breakerFails = flag.Int("breaker-threshold", kvstore.DefaultFailureThreshold, "consecutive failures opening a backend breaker (negative = breaker off)")
		probeEvery   = flag.Duration("probe-interval", kvstore.DefaultProbeInterval, "health-probe cadence for open backends")

		maxInflight = flag.Int("max-inflight", 0, "shed client requests beyond this many in flight with BUSY (0 = unlimited)")
		maxConns    = flag.Int("max-conns", 0, "reject client connections beyond this many at accept (0 = unlimited)")
		rateLimit   = flag.Float64("rate-limit", 0, "shed client requests beyond this many per second (0 = unlimited)")
		rateBurst   = flag.Float64("rate-burst", 0, "rate-limit burst size (0 = derived from the rate)")
		admitWait   = flag.Duration("admission-wait", 0, "how long a request may wait for an in-flight slot before being shed (0 = default, negative = none)")
		poolSize    = flag.Int("pool-size", 0, "idle lockstep connections pooled per backend; unused, since backend connections are pipelined (one per backend)")
		retryBudget = flag.Float64("retry-budget", 0, "shared backend retry-budget tokens (0 = default, negative = no budget)")
		budgetRatio = flag.Float64("retry-budget-ratio", 0, "retry-budget refill per successful backend exchange (0 = default)")
		idleTimeout = flag.Duration("idle-timeout", 0, "drop client connections idle longer than this (0 = keep forever)")

		items     = flag.Int("items", 0, "expected stored item count m: > 0 enables LIVE auto-provisioning — c* is recomputed and the cache resized on every committed join/drain")
		kprime    = flag.Float64("kprime", 0, "k' additive constant for auto-provisioning (0 = fitted default)")
		kOverride = flag.Float64("k", 0, "override k entirely for auto-provisioning (0 = derive from n, d, k')")
		joinAbort = flag.Duration("join-abort-after", 0, "roll back a join whose new node stays unreachable this long (0 = default 20s, negative = retry forever)")

		partitioner = flag.String("partitioner", "hash", "backend partition family: hash | ring (ring moves ~1/n of keys per joined/drained node)")
		tierID      = flag.Int("tier-id", -1, "this instance's ID in a distributed frontend tier (-1 = standalone frontend)")
		tierMembers = flag.String("tier-members", "", "comma-separated tier member IDs, must include -tier-id (empty = just this instance)")
		tierSeed    = flag.Uint64("tier-seed", 0, "PUBLIC tier mapping seed — same value on every tier member")

		writeQuorum = flag.Int("write-quorum", 0, "replica acks a Set/Del needs to succeed, W in [1, d] (0 = majority)")
		hintDir     = flag.String("hint-dir", "", "persist hinted-handoff queues to this directory (empty = memory only)")
		hintLimit   = flag.Int("hint-limit", 0, "max queued hints per backend (0 = default)")
		repairEvery = flag.Duration("repair-interval", 0, "anti-entropy pass cadence (0 = default, negative = off)")
		repairRate  = flag.Float64("repair-rate", 0, "max anti-entropy repair writes per second (0 = default, negative = unlimited)")
	)
	flag.Parse()

	addrs := splitNonEmpty(*backends)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "kvfront: -backends is required")
		os.Exit(2)
	}

	size := *cacheSize
	if size == 0 && *cacheKind != "none" {
		p := core.Params{Nodes: len(addrs), Replication: *repl, Items: 1, KPrime: *kprime, KOverride: *kOverride}
		if len(addrs) >= 2 && *repl >= 2 {
			size = p.RequiredCacheSize()
			log.Printf("kvfront: auto-provisioned cache size c* = %d (n=%d, d=%d)", size, len(addrs), *repl)
		} else {
			size = 64
			log.Printf("kvfront: n or d below the d-choice analysis; defaulting cache to %d entries", size)
		}
	}

	var fc cache.Cache
	shards := 0
	if *cacheKind != "none" {
		var err error
		switch {
		case *cacheShards == 1:
			fc, err = cache.New(cache.Kind(*cacheKind), size)
			shards = 1
		default:
			n := *cacheShards
			if n < 0 {
				n = 0 // auto: NewSharded picks DefaultShards()
			}
			var sc *cache.Sharded
			sc, err = cache.NewSharded(cache.Kind(*cacheKind), size, n)
			if err == nil {
				fc = sc
				shards = sc.Shards()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvfront:", err)
			os.Exit(2)
		}
	}

	var tier *kvstore.TierConfig
	if *tierID >= 0 {
		members := []int{*tierID}
		if *tierMembers != "" {
			members = members[:0]
			for _, s := range splitNonEmpty(*tierMembers) {
				id, err := strconv.Atoi(s)
				if err != nil {
					fmt.Fprintf(os.Stderr, "kvfront: bad -tier-members entry %q: %v\n", s, err)
					os.Exit(2)
				}
				members = append(members, id)
			}
		}
		tier = &kvstore.TierConfig{ID: *tierID, Members: members, Seed: *tierSeed}
	} else if *tierMembers != "" || *tierSeed != 0 {
		fmt.Fprintln(os.Stderr, "kvfront: -tier-members/-tier-seed need -tier-id")
		os.Exit(2)
	}

	front, err := kvstore.NewFrontend(kvstore.FrontendConfig{
		BackendAddrs:  addrs,
		Replication:   *repl,
		PartitionSeed: *seed,
		Cache:         fc,
		Selection:     kvstore.Selection(*selection),
		Client: kvstore.ClientConfig{
			DialTimeout:  *dialTimeout,
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
			MaxRetries:   *retries,
			MaxIdleConns: *poolSize,
		},
		Health: kvstore.HealthConfig{
			FailureThreshold: *breakerFails,
			ProbeInterval:    *probeEvery,
		},
		Overload: overload.Limits{
			MaxInflight:   *maxInflight,
			MaxConns:      *maxConns,
			RateLimit:     *rateLimit,
			RateBurst:     *rateBurst,
			AdmissionWait: *admitWait,
		},
		RetryBudgetMax:   *retryBudget,
		RetryBudgetRatio: *budgetRatio,
		IdleTimeout:      *idleTimeout,
		WriteQuorum:      *writeQuorum,
		HintDir:          *hintDir,
		HintLimit:        *hintLimit,
		RepairInterval:   *repairEvery,
		RepairRate:       *repairRate,
		Membership:       kvstore.MembershipConfig{AbortAfter: *joinAbort},
		Provision: kvstore.ProvisionConfig{
			Items:     *items,
			KPrime:    *kprime,
			KOverride: *kOverride,
		},
		Partitioner: partition.Kind(*partitioner),
		Tier:        tier,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvfront:", err)
		os.Exit(2)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvfront:", err)
		os.Exit(2)
	}
	log.Printf("kvfront listening on %s, %d backends, d=%d, cache=%s/%d (%d shard(s))",
		l.Addr(), len(addrs), *repl, *cacheKind, size, shards)
	if tier != nil {
		log.Printf("kvfront: tier member %d of %v (public tier seed %#x)", *tierID, tier.Members, *tierSeed)
	}

	if *admin != "" {
		// StartAdminWith mounts the rotation and membership control verbs
		// (POST /rotate, /join, /drain; GET /rotation, /membership) next
		// to the scrape surface — bind -admin to loopback or an internal
		// interface only.
		adminSrv, adminAddr, err := kvstore.StartAdminWith(*admin, front.Metrics(), map[string]interface{}{
			"role": "frontend", "addr": l.Addr().String(),
			"backends": addrs, "replication": *repl,
			"cache": *cacheKind, "cache_size": size, "cache_shards": shards,
		}, front.AdminHandlers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvfront:", err)
			os.Exit(2)
		}
		defer adminSrv.Close()
		log.Printf("kvfront admin on http://%s", adminAddr)
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("kvfront shutting down")
		front.Close()
	}()

	if err := front.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal("kvfront: ", err)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
