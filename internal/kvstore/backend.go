package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"securecache/internal/metrics"
	"securecache/internal/overload"
	"securecache/internal/proto"
	"securecache/internal/wal"
)

// scanPageBytes bounds the value bytes one OpScan page may carry, well
// inside proto.MaxValueLen so the encoded payload always fits a frame.
const scanPageBytes = 1 << 20

// Backend is one back-end node: a Store behind a TCP listener speaking
// the proto wire format. Create with NewBackend, then Serve (or use
// StartBackend which does both on a goroutine).
type Backend struct {
	id      int
	store   *Store
	metrics *metrics.Registry
	srv     *connServer // listener, connections and admission (server.go)

	// Hot-path counters, resolved once: registry lookups (mutex + name
	// hash) are too expensive to repeat on every request.
	requestsTotal *metrics.Counter
	getsTotal     *metrics.Counter
	hitsTotal     *metrics.Counter
	setsTotal     *metrics.Counter
	delsTotal     *metrics.Counter
	mgetsTotal    *metrics.Counter
	scansTotal    *metrics.Counter
	casTotal      *metrics.Counter
	casConflicts  *metrics.Counter

	// wal is the node's write-ahead log when it runs durable (OpenData);
	// nil for memory-only nodes. Closed by Close after handlers drain,
	// so every logged mutation gets its final fsync.
	wal *wal.Log
}

// NewBackend returns a backend node with the given ID (used only for
// logging and stats) and no admission limits.
func NewBackend(id int) *Backend {
	return NewBackendWithLimits(id, overload.Limits{})
}

// NewBackendWithLimits returns a backend with server-side overload
// control: requests beyond lim.RateLimit or lim.MaxInflight are shed
// with StatusBusy (counted in shed_total), and connections beyond
// lim.MaxConns are closed at accept (busy_conns_rejected_total). A zero
// lim disables all gating. OpPing and OpStats are exempt from admission.
func NewBackendWithLimits(id int, lim overload.Limits) *Backend {
	reg := metrics.NewRegistry()
	b := &Backend{
		id:            id,
		store:         NewStore(),
		metrics:       reg,
		srv:           newConnServer(fmt.Sprintf("backend %d", id), reg, lim),
		requestsTotal: reg.Counter("requests_total"),
		getsTotal:     reg.Counter("gets_total"),
		hitsTotal:     reg.Counter("hits_total"),
		setsTotal:     reg.Counter("sets_total"),
		delsTotal:     reg.Counter("dels_total"),
		mgetsTotal:    reg.Counter("mgets_total"),
		scansTotal:    reg.Counter("scans_total"),
		casTotal:      reg.Counter("cas_total"),
		casConflicts:  reg.Counter("cas_conflicts_total"),
	}
	// Every single-key read is a pure-memory store read, so the full
	// handler doubles as the fast path.
	b.srv.handle = b.handle
	b.srv.exempt = ops(proto.OpPing, proto.OpStats)
	b.srv.fast = b.handle
	b.srv.fastOps = ops(proto.OpGet, proto.OpGetV)
	return b
}

// Metrics exposes the node's metric registry ("requests_total",
// "gets_total", "sets_total", "dels_total", "hits_total").
func (b *Backend) Metrics() *metrics.Registry { return b.metrics }

// Store exposes the underlying storage engine (tests seed data directly).
func (b *Backend) Store() *Store { return b.store }

// SetIdleTimeout bounds how long a connection may sit between requests
// before the backend drops it (0 = forever, the default). Clients with a
// pooled conn that gets dropped recover via their reused-conn retry.
func (b *Backend) SetIdleTimeout(d time.Duration) { b.srv.idleTimeout.Store(int64(d)) }

// Serve accepts connections on l until Close. It always returns a non-nil
// error (net.ErrClosed after a clean Close).
func (b *Backend) Serve(l net.Listener) error { return b.srv.serve(l) }

// handle serves one request. Single-key read payloads are copied
// straight into scratch (Store.AppendValue), so a GET costs zero
// allocations instead of one value copy; see connServer for the rule
// that makes returning a response aliasing it safe.
func (b *Backend) handle(req *proto.Request, scratch *[]byte) *proto.Response {
	b.requestsTotal.Inc()
	switch req.Op {
	case proto.OpGet:
		b.getsTotal.Inc()
		buf, _, tomb, ok := b.store.AppendValue((*scratch)[:0], req.Key)
		*scratch = buf
		if !ok || tomb {
			return reply(proto.StatusNotFound, nil)
		}
		b.hitsTotal.Inc()
		return reply(proto.StatusOK, buf)
	case proto.OpGetV:
		b.getsTotal.Inc()
		// Reserve the 8-byte version header, copy the value in under the
		// store lock, then patch the version in place.
		buf := append((*scratch)[:0], 0, 0, 0, 0, 0, 0, 0, 0)
		buf, ver, tomb, ok := b.store.AppendValue(buf, req.Key)
		*scratch = buf
		if !ok {
			return reply(proto.StatusNotFound, nil)
		}
		binary.BigEndian.PutUint64(buf, ver)
		if tomb {
			// A tombstone is an authoritative miss: NotFound, but the
			// version rides along so the frontend can tell "never heard
			// of it" from "deleted at version v".
			return reply(proto.StatusNotFound, buf[:8])
		}
		if len(buf)-8 > proto.MaxValueLen {
			return errResponse(b.srv.role, req.Op,
				fmt.Errorf("stored value exceeds %d bytes", proto.MaxValueLen))
		}
		b.hitsTotal.Inc()
		return reply(proto.StatusOK, buf)
	case proto.OpSet:
		b.setsTotal.Inc()
		if req.EpochGuard {
			// Migration copy: apply only over absent or older-epoch
			// entries. A skipped copy is still StatusOK — the migrator
			// only needs to know the key is settled at the new epoch.
			b.store.SetGuarded(req.Key, req.Value, req.Epoch, req.Ver)
		} else {
			// Versioned writes apply highest-version-wins; Ver 0 is the
			// unconditional legacy path. A version-skipped write is
			// still StatusOK — the stored state is at least as new.
			b.store.SetVersioned(req.Key, req.Value, req.Epoch, req.Ver)
		}
		return reply(proto.StatusOK, nil)
	case proto.OpDel:
		b.delsTotal.Inc()
		if req.Ver != 0 {
			// Versioned delete writes a tombstone (even over an absent
			// key — the replica that DID have it may be down right now).
			b.store.DeleteVersioned(req.Key, req.Epoch, req.Ver)
			return reply(proto.StatusOK, nil)
		}
		if !b.store.Delete(req.Key) {
			return reply(proto.StatusNotFound, nil)
		}
		return reply(proto.StatusOK, nil)
	case proto.OpCas:
		b.casTotal.Inc()
		// Single-replica compare-and-swap under the shard lock. The
		// payload always carries a version: the new live one on success,
		// the conflicting current one on StatusConflict. A backend
		// conflict is never partial — nothing was written.
		applied, ver := b.store.CasVersioned(req.Key, req.Value, req.Epoch, req.CasExpect, req.Ver)
		buf := binary.BigEndian.AppendUint64((*scratch)[:0], ver)
		*scratch = buf
		if !applied {
			b.casConflicts.Inc()
			return reply(proto.StatusConflict, buf)
		}
		return reply(proto.StatusOK, buf)
	case proto.OpMGet:
		b.mgetsTotal.Inc()
		b.getsTotal.Add(uint64(len(req.Keys)))
		results := make([]proto.MGetResult, len(req.Keys))
		for i, key := range req.Keys {
			v, ok := b.store.Get(key)
			results[i] = proto.MGetResult{Found: ok, Value: v}
			if ok {
				b.hitsTotal.Inc()
			}
		}
		payload, err := proto.EncodeMGetPayload(results)
		if err != nil {
			return errResponse(b.srv.role, req.Op, err)
		}
		return reply(proto.StatusOK, payload)
	case proto.OpScan:
		b.scansTotal.Inc()
		entries, next := b.store.Scan(req.ScanCursor, int(req.ScanLimit), req.Epoch, scanPageBytes,
			ScanOptions{Tombs: req.ScanTombs, Digest: req.ScanDigest})
		payload, err := proto.EncodeScanPayload(next, entries)
		if err != nil {
			return errResponse(b.srv.role, req.Op, err)
		}
		return reply(proto.StatusOK, payload)
	case proto.OpStats:
		blob, err := b.metrics.Snapshot()
		if err != nil {
			return errResponse(b.srv.role, req.Op, fmt.Errorf("snapshot: %w", err))
		}
		return reply(proto.StatusOK, blob)
	case proto.OpPing:
		return reply(proto.StatusOK, nil)
	default:
		return errResponse(b.srv.role, req.Op, errors.New("unsupported op"))
	}
}

// errResponse logs the detailed error server-side and puts only a
// sanitized message on the wire: internal errors carry backend
// addresses, dial targets, and wrapped OS error strings, none of which
// belong in the hands of an (adversarial) wire client.
func errResponse(role string, op proto.Op, err error) *proto.Response {
	log.Printf("kvstore: %s: %s failed: %v", role, op, err)
	return reply(proto.StatusError, []byte(fmt.Sprintf("%s failed: internal error", op)))
}

// Close stops accepting, closes all connections, and waits for handler
// goroutines to drain. Safe to call more than once.
func (b *Backend) Close() error {
	first, err := b.srv.close()
	if !first {
		return nil
	}
	// All handlers are drained: no more appends. Close the log last so
	// the final records get their fsync before the process exits.
	if b.wal != nil {
		if werr := b.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// StartBackend listens on addr (use "127.0.0.1:0" for an ephemeral port)
// and serves on a background goroutine. It returns the backend and the
// bound address.
func StartBackend(id int, addr string) (*Backend, string, error) {
	return StartBackendWithLimits(id, addr, overload.Limits{})
}

// StartBackendWithLimits is StartBackend with server-side overload
// control (see NewBackendWithLimits).
func StartBackendWithLimits(id int, addr string, lim overload.Limits) (*Backend, string, error) {
	b := NewBackendWithLimits(id, lim)
	bound, err := b.srv.listenAndServe(addr)
	if err != nil {
		return nil, "", err
	}
	return b, bound, nil
}
