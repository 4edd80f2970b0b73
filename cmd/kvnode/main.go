// Command kvnode runs one back-end node of the kvstore: a
// replicated-partition storage server speaking the securecache wire
// protocol (Get/Set/Del/MGet/Scan plus versioned compare-and-swap —
// OpCas frames carry an expected version and return the current one on
// conflict, so read-modify-write cycles stay lost-update-free across
// the quorum). By default state lives in memory only; -data-dir attaches
// a write-ahead log, the node's only durability mechanism, so a crashed
// node replays back to its exact pre-crash keyset instead of rejoining
// empty and being refilled over the network. -snapshot imports a
// snapshot file once into an empty data dir (all or nothing, fsynced).
//
// Usage:
//
//	kvnode -id 0 -listen 127.0.0.1:7001 -data-dir /var/lib/kvnode0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/overload"
	"securecache/internal/wal"
)

func main() {
	var (
		id       = flag.Int("id", 0, "node ID (for logs/stats)")
		listen   = flag.String("listen", "127.0.0.1:7001", "listen address")
		admin    = flag.String("admin", "", "optional HTTP admin address (/healthz, /metrics, /info)")
		snapshot = flag.String("snapshot", "", "snapshot file to import once at startup into an empty -data-dir (skipped when the WAL replays data; needs -data-dir)")
		idle     = flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = keep forever)")

		dataDir  = flag.String("data-dir", "", "write-ahead log directory: replayed at startup, every write logged (empty = memory-only)")
		walSeg   = flag.Int64("wal-segment-bytes", 0, "seal WAL segments at this size (0 = default 64MiB)")
		walSync  = flag.Duration("wal-sync-interval", 0, "background WAL fsync cadence (0 = default 500ms)")
		walFsync = flag.Bool("wal-sync-every-append", false, "fsync the WAL after every write (power-loss-proof, slow)")

		joinVia   = flag.String("join-via", "", "frontend ADMIN address (host:port): after the node is serving, POST /join there to enter the cluster live")
		advertise = flag.String("advertise", "", "address to register with -join-via (default: the bound listen address)")

		maxInflight = flag.Int("max-inflight", 0, "shed requests beyond this many in flight with BUSY (0 = unlimited)")
		maxConns    = flag.Int("max-conns", 0, "reject connections beyond this many at accept (0 = unlimited)")
		rateLimit   = flag.Float64("rate-limit", 0, "shed requests beyond this many per second (0 = unlimited)")
		rateBurst   = flag.Float64("rate-burst", 0, "rate-limit burst size (0 = derived from the rate)")
		admitWait   = flag.Duration("admission-wait", 0, "how long a request may wait for an in-flight slot before being shed (0 = default, negative = none)")
	)
	flag.Parse()
	if *snapshot != "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "kvnode: -snapshot needs -data-dir")
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvnode:", err)
		os.Exit(2)
	}
	node := kvstore.NewBackendWithLimits(*id, overload.Limits{
		MaxInflight:   *maxInflight,
		MaxConns:      *maxConns,
		RateLimit:     *rateLimit,
		RateBurst:     *rateBurst,
		AdmissionWait: *admitWait,
	})
	node.SetIdleTimeout(*idle)
	log.Printf("kvnode %d listening on %s", *id, l.Addr())

	if *dataDir != "" {
		recovered, err := node.OpenData(*dataDir, wal.Options{
			SegmentBytes:    *walSeg,
			SyncInterval:    *walSync,
			SyncEveryAppend: *walFsync,
		})
		if err != nil {
			// Unlike a corrupt directory (quarantined inside OpenData), an
			// open failure means the node cannot honor -data-dir at all:
			// refuse to run rather than silently serve without durability.
			fmt.Fprintln(os.Stderr, "kvnode:", err)
			os.Exit(2)
		}
		st := node.WAL().Stats()
		switch {
		case recovered:
			log.Printf("kvnode %d: data dir %s was corrupt — quarantined to %s.corrupt, starting empty for repair",
				*id, *dataDir, *dataDir)
		case st.Replayed > 0:
			log.Printf("kvnode %d: replayed %d keys from %s (%d torn records truncated, %d hint loads, %d hint fallbacks)",
				*id, st.Replayed, *dataDir, st.TornTruncations, st.HintLoads, st.HintFallbacks)
		default:
			log.Printf("kvnode %d: opened empty data dir %s", *id, *dataDir)
		}
	}

	if *snapshot != "" && node.WAL().Stats().Replayed > 0 {
		// One-shot import: once the log holds data it is the node's state.
		log.Printf("kvnode %d: WAL replayed; skipping snapshot import from %s", *id, *snapshot)
	} else if *snapshot != "" {
		switch err := node.LoadSnapshot(*snapshot); {
		case err == nil:
			log.Printf("kvnode %d imported %d keys from %s", *id, node.Store().Len(), *snapshot)
		case os.IsNotExist(err) || errors.Is(err, kvstore.ErrBadSnapshot):
			// Nothing was imported. A missing or corrupt snapshot must not
			// keep the node down: an empty replica rejoins and is refilled
			// by hinted handoff and anti-entropy, while a crash-looping one
			// serves nobody.
			log.Printf("kvnode %d: snapshot %s not imported (%v), starting empty", *id, *snapshot, err)
		default: // unopenable file, or the log could not make the import durable
			fmt.Fprintln(os.Stderr, "kvnode:", err)
			os.Exit(2)
		}
	}

	if *admin != "" {
		adminSrv, adminAddr, err := kvstore.StartAdmin(*admin, node.Metrics(),
			map[string]interface{}{"role": "backend", "id": *id, "addr": l.Addr().String()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvnode:", err)
			os.Exit(2)
		}
		defer adminSrv.Close()
		log.Printf("kvnode %d admin on http://%s", *id, adminAddr)
	}

	if *joinVia != "" {
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = l.Addr().String()
		}
		// Join AFTER the listener is up (the frontend pings the node
		// before staging it) and retry briefly: the frontend may still be
		// finishing a previous view change (409).
		go joinCluster(*joinVia, selfAddr, *id)
	}

	// Registered before Serve, so SIGTERM after any answered request reaches Close.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan error, 1)
	go func() {
		<-sig
		log.Printf("kvnode %d shutting down", *id)
		closed <- node.Close()
	}()

	if err := node.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatalf("kvnode %d: %v", *id, err)
	}
	// Serve returns once Close shuts the listener, before Close has
	// drained handlers and given the WAL its final fsync: wait for it.
	if err := <-closed; err != nil {
		log.Fatalf("kvnode %d: close: %v", *id, err)
	}
	log.Printf("kvnode %d stopped", *id)
}

// joinCluster asks the frontend's admin surface to admit this node,
// retrying while a previous view change is still migrating (409).
func joinCluster(adminAddr, selfAddr string, id int) {
	target := fmt.Sprintf("http://%s/join?addr=%s", adminAddr, url.QueryEscape(selfAddr))
	client := &http.Client{Timeout: 10 * time.Second}
	for attempt := 0; attempt < 60; attempt++ {
		resp, err := client.Post(target, "", nil)
		if err != nil {
			log.Printf("kvnode %d: join via %s: %v (will retry)", id, adminAddr, err)
		} else {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				log.Printf("kvnode %d: joined cluster via %s: %s", id, adminAddr, strings.TrimSpace(string(body)))
				return
			case http.StatusConflict:
				log.Printf("kvnode %d: join via %s: cluster busy with another change (will retry)", id, adminAddr)
			default:
				log.Printf("kvnode %d: join via %s: %s: %s", id, adminAddr, resp.Status, strings.TrimSpace(string(body)))
				return
			}
		}
		time.Sleep(2 * time.Second)
	}
	log.Printf("kvnode %d: giving up joining via %s", id, adminAddr)
}
