// Package kvstore is a real, networked implementation of the paper's
// architecture: back-end nodes storing a randomly partitioned key space
// with replication, behind a front-end server that owns a small
// popularity-based cache and the secret partition seed. The node itself
// lives in internal/node; this package holds the frontend, the client,
// the frontend tier and the in-process cluster harness.
//
// The simulation packages validate the theory against the abstract model;
// kvstore demonstrates the same provisioning rule end-to-end over TCP —
// an adversarial load generator (cmd/kvload) really does saturate one
// back-end node when the front-end cache is under-provisioned, and really
// cannot once the cache reaches c* entries.
package kvstore

import (
	"net/http"

	"securecache/internal/metrics"
	"securecache/internal/node"
	"securecache/internal/overload"
)

// The node's names, kept here for the callers that have always found
// them in this package.
type (
	Store       = node.Store
	Backend     = node.Backend
	AdminServer = node.AdminServer
	ScanOptions = node.ScanOptions
)

// KeyID maps a wire key to its 64-bit ID: the frontend partitions by the
// same hash the node orders its scans by.
func KeyID(key string) uint64 { return node.KeyID(key) }

// The node's constructors and helpers, under the names they have always
// had here; each is documented at its node counterpart.

func NewStore() *Store             { return node.NewStore() }
func NewBackend(id int) *Backend   { return node.NewBackend(id) }
func ValueSum(value []byte) uint64 { return node.ValueSum(value) }

func NewBackendWithLimits(id int, lim overload.Limits) *Backend {
	return node.NewBackendWithLimits(id, lim)
}

func StartBackend(id int, addr string) (*Backend, string, error) {
	return node.StartBackend(id, addr)
}

func StartBackendWithLimits(id int, addr string, lim overload.Limits) (*Backend, string, error) {
	return node.StartBackendWithLimits(id, addr, lim)
}

func StartAdmin(addr string, reg *metrics.Registry, info map[string]interface{}) (*AdminServer, string, error) {
	return node.StartAdmin(addr, reg, info)
}

func StartAdminWith(addr string, reg *metrics.Registry, info map[string]interface{}, extra map[string]http.HandlerFunc) (*AdminServer, string, error) {
	return node.StartAdminWith(addr, reg, info, extra)
}
