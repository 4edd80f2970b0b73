package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"securecache/internal/metrics"
)

// AdminServer exposes a node's operational surface over HTTP:
//
//	GET /healthz               -> 200 "ok"
//	GET /metrics               -> the metrics registry as JSON
//	GET /metrics?format=prom   -> the same registry in Prometheus text
//	                              exposition format
//	GET /info                  -> static node info (JSON)
//	GET /debug/pprof/...       -> the standard Go profiling endpoints
//	                              (profile, heap, goroutine, trace, ...)
//
// plus any extra handlers the owner mounts (the frontend adds its
// rotation verbs — see Frontend.AdminHandlers). It exists so a
// deployment can be scraped by ordinary monitoring tooling without
// speaking the binary protocol; the guard package's load vectors come
// from exactly these metrics. The surface is operator-facing and
// unauthenticated: bind it to loopback or an internal interface, never
// the client-facing one — /rotate in particular is a control verb.
type AdminServer struct {
	server   *http.Server
	listener net.Listener
}

// StartAdmin serves the admin surface for the given registry on addr
// (use "127.0.0.1:0" for ephemeral). info is embedded verbatim in /info.
func StartAdmin(addr string, reg *metrics.Registry, info map[string]interface{}) (*AdminServer, string, error) {
	return StartAdminWith(addr, reg, info, nil)
}

// StartAdminWith is StartAdmin plus extra path -> handler mounts (which
// may not shadow the built-in paths).
func StartAdminWith(addr string, reg *metrics.Registry, info map[string]interface{}, extra map[string]http.HandlerFunc) (*AdminServer, string, error) {
	for _, builtin := range []string{"/healthz", "/metrics", "/info"} {
		if _, clash := extra[builtin]; clash {
			return nil, "", fmt.Errorf("node: admin handler %s shadows a built-in", builtin)
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("node: admin listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if werr := reg.WritePrometheus(w); werr != nil {
				// Headers are gone; all we can do is drop the conn.
				_ = werr
			}
			return
		}
		blob, err := reg.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	// Profiling endpoints, mounted explicitly (the admin mux is not
	// http.DefaultServeMux, so the net/http/pprof side-effect imports
	// alone would not expose them here). Same trust model as the rest of
	// the surface: operator-facing, loopback/internal only.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range extra {
		mux.HandleFunc(path, h)
	}
	infoBlob, err := json.Marshal(info)
	if err != nil {
		l.Close()
		return nil, "", fmt.Errorf("node: admin info: %w", err)
	}
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(infoBlob)
	})
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if serr := srv.Serve(l); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			// Accept-loop failures after Close are expected; anything else
			// is already surfaced to clients as connection errors.
			_ = serr
		}
	}()
	return &AdminServer{server: srv, listener: l}, l.Addr().String(), nil
}

// Close stops the admin server.
func (a *AdminServer) Close() error { return a.server.Close() }
