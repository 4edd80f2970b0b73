# Developer targets. `make verify` is the tier-1 gate; `make race`
# runs the race-enabled loopback-TCP network tests (kvstore, node) that
# every resilience PR should keep green.

GO ?= go

.PHONY: all build test verify vet lint race chaos wal membership disttier consistency bench fuzz loc

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is its own module, so `go test ./...` does not see it: vet it
# and run its short tests here so drift in an API or flag it uses is
# caught before the benchmark pipeline finds it.
verify: build test
	$(GO) -C bench vet ./... && $(GO) -C bench test -short ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when installed (CI
# installs it — see .github/workflows/ci.yml — but it is not a local
# build prerequisite, so its absence only prints a notice).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Race-detect the networked kvstore and node packages: failover,
# retries, breaker transitions, the probe loop, the pipelined
# transport's reader/writer/watchdog goroutines and the node's conn
# pipelines all run real goroutines over loopback. The proto package
# rides along for its pooled frame and struct lifecycles.
race:
	$(GO) vet ./... && $(GO) test -race ./internal/kvstore/... ./internal/node/... ./internal/proto/...

# Chaos suite: the cluster driven through faultnet fault schedules
# (floods, latency, truncation, flapping partitions) under -race, plus
# the fault proxy's own tests.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/kvstore/... && \
	$(GO) test -race ./internal/faultnet/...

# WAL crash matrix — the whole of the one persistence path: the storage
# engine's own tests (torn tails, mid-segment corruption, hint fallback,
# merge interruption), the kvstore crash-point suite (kill -9 torn tail,
# quarantine-and-refill, warm restart with zero repair traffic, crash
# recovery and stale-replica convergence from a data dir, replay of a
# log every store mutator wrote concurrently), and kvnode's SIGTERM
# shutdown, all under -race.
wal:
	$(GO) test -race ./internal/wal/... && \
	$(GO) test -race -v -run 'TestChaosWarmRestart|TestChaosKill9|TestChaosCorruptionQuarantine|TestChaosTruncatedHint|TestBackendCrashRecovery|TestStaleReplicaConvergesAfterPartialSet|TestStoreConcurrentVersionedWrites' ./internal/kvstore/ && \
	$(GO) test -race ./cmd/kvnode/

# Remap matrix: both kinds of epoch change through the one remap
# engine, under -race. Membership: live join/drain, the FIFO of queued
# view changes, breaker-state rebuild on view commit, the moved-fraction
# regression, join rollback on a dead joiner, crash-during-drain
# durability, and the scale-under-attack scenario. Rotation: secret
# rotation basics, concurrent-change refusal, deletes mid-migration,
# commit-with-skips, the admin verbs, rotation under attack, and the
# tier's secret rotation. The membership and rotation packages' own
# state-machine tests ride along.
membership:
	$(GO) test -race -v -run 'TestJoin|TestDrain|TestMembership|TestViewCommit|TestAutoProvision|TestScaleUnderAttack|TestFrontendRotate|TestRotat|TestTierSecretRotation' ./internal/kvstore/ && \
	$(GO) test -race ./internal/membership/... ./internal/rotation/...

# Distributed frontend tier matrix: the tier unit tests (two-choice
# routing, candidate-gated cache admission, load-hint piggyback,
# invalidation, c* split), the tier chaos scenarios (frontend crash
# mid-attack, secret rotation during the attack), the disttier mapping
# package, secctl (the guard's auto-drain planner and the admin verbs
# against a live cluster), and the two-layer Eq. 10 experiment — all
# under -race.
disttier:
	$(GO) test -race -v -run 'TestTier' ./internal/kvstore/ && \
	$(GO) test -race ./internal/disttier/... && \
	$(GO) test -race ./cmd/secctl/ && \
	$(GO) test -race -v -run 'TestTwoLayer' ./internal/experiments/

# Consistency fault matrix: recorded histories through asymmetric
# partitions, crash-mid-quorum-write, secret rotation, and join/drain,
# judged by the porcupine-style register checker and the convergence
# checker, plus the mutation tests that prove the contract is enforced —
# all under -race. A failing scenario dumps a replayable artifact into
# CONSISTENCY_ARTIFACT_DIR (CI uploads the directory); replay a capture
# with the seed it records via -consistency-seed. The checker package's
# own unit tests ride along.
CONSISTENCY_ARTIFACT_DIR ?= $(CURDIR)/consistency-artifacts

consistency:
	CONSISTENCY_ARTIFACT_DIR=$(CONSISTENCY_ARTIFACT_DIR) \
		$(GO) test -race -v -run 'TestConsistency' ./internal/kvstore/ && \
	$(GO) test -race ./internal/consistency/...

# Micro-benchmarks with allocation counts. -benchtime=1x is the smoke
# setting (CI runs it to keep the benchmarks compiling and honest);
# real measurements want `make bench BENCHTIME=2s`.
BENCHTIME ?= 1x

bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem ./...

# Fuzz smoke: a short budget per wire-format fuzz target. `go test -fuzz`
# accepts exactly one matching target per invocation, so each target gets
# its own anchored run.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz='^FuzzReadRequest$$' -fuzztime=$(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz='^FuzzReadResponse$$' -fuzztime=$(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz='^FuzzScanPayload$$' -fuzztime=$(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz='^FuzzServeConn$$' -fuzztime=$(FUZZTIME) ./internal/node/
	$(GO) test -fuzz='^FuzzReplaySegment$$' -fuzztime=$(FUZZTIME) ./internal/wal/

# Non-test Go line counts for the serving path and the binaries — the
# number ROADMAP's "same behaviour from the least machinery" is tracked
# by.
loc:
	@for d in internal/kvstore internal/node internal/proto cmd; do \
		printf '%-18s %s\n' $$d \
			$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
