// Package securecache reproduces "Secure Cache Provision: Provable DDOS
// Prevention for Randomly Partitioned Services with Replication" (Chu,
// Guan, Lui, Cai, Shi — IEEE ICDCS Workshops 2013) as a production-grade
// Go library.
//
// The implementation lives under internal/, organized as one package per
// subsystem:
//
//   - internal/core        — the paper's analysis: Theorem 1, the Eq. 8/10
//     throughput bounds, and the O(n·lnln n/ln d) cache provisioning rule
//   - internal/attack      — the adversary model and empirical attack
//     evaluation
//   - internal/sim         — the multi-run simulation harness
//   - internal/experiments — one driver per paper figure plus ablations
//   - internal/cluster, internal/partition, internal/workload,
//     internal/ballsbins, internal/cache, internal/sketch,
//     internal/hashing, internal/stats, internal/xrand — the simulation
//     substrates
//   - internal/kvstore, internal/proto, internal/metrics, internal/trace
//     — a real networked key-value store implementing the architecture
//     end-to-end over TCP
//
// Binaries under cmd/ are a deployable store (kvnode, kvfront, kvload),
// the operator tool (secctl: status, rotate, join, drain, the guard, and
// the provisioning calculator), and everything offline (secexperiments:
// the full evaluation, one simulation, the adversary, and the in-process
// cost baselines).
// Start with README.md and examples/quickstart.
//
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation at scaled-down parameters; run the secexperiments binary for
// paper-size sweeps.
package securecache
