// Package loadgen is the benchmark's load generator: the four permanent
// workloads, the seeded op stream, self-verifying values, and the open-
// and closed-loop phase runners. It sees the cluster only through
// kvstore.Client connections to the frontend — never the secret
// partition seed.
package loadgen

import (
	"fmt"
	"math"

	"securecache/internal/workload"
	"securecache/internal/xrand"
)

// Keys is m, the number of keys every workload preloads.
const Keys = 50000

// Conns and PipelineDepth fix the generator's transport: two pipelined
// connections to the frontend, the sandbox having two cores.
const (
	Conns         = 2
	PipelineDepth = 64
	// OpenWorkers is the number of open-loop sender goroutines per
	// connection. It is twice the window so that the in-flight window,
	// not the goroutine count, is what a backlog queues behind (and
	// OnWindowWait reports it).
	OpenWorkers = 2 * PipelineDepth
	// ClosedCallers is the number of closed-loop callers per connection.
	ClosedCallers = 32
)

// Spec is one workload. Names are permanent: later changes are judged
// against results recorded under them. Why each exists is in
// BENCHMARK.json and bench/README.md.
type Spec struct {
	Name string
	// QueryKeys is how many of the hottest keys are queried (<= Keys).
	QueryKeys int
	// Zipf is the exponent of the key popularity; 0 selects the paper's
	// adversarial pattern over QueryKeys keys (all equally likely).
	Zipf float64
	// SetFrac is the share of operations that are SETs.
	SetFrac float64
	// ValueBytes is the size of every value.
	ValueBytes int
	// CacheSize is kvfront's -cache-size; 0 auto-provisions c*.
	CacheSize int
	// WAL runs every kvnode with -data-dir (default flush policy).
	WAL bool
	// Serial is the "serial caller" workload: one request in flight per
	// connection, closed loop only.
	Serial bool
	// OpenRate is the open-loop arrival rate in ops/s. It is frozen:
	// chosen once on the commit that added the benchmark, never
	// calibrated per run. It is a light load — generator and servers
	// together keep about a fifth of one of the two cores busy, a
	// twenty-fifth to a ninth of the closed-loop peak — because a shared
	// host takes the processor away for milliseconds at a time: at a
	// quarter of the peak the backlog behind each such pause reached most
	// requests and the median spread 20-35 % between runs of the same
	// code; at this load a pause reaches the requests in flight and
	// little else.
	OpenRate float64
}

// Specs lists the workloads in the order a full run executes them.
var Specs = []Spec{
	{
		Name:      "hit_small",
		QueryKeys: 2000, Zipf: 1.01, ValueBytes: 64, CacheSize: 2000,
		OpenRate: 10000,
	},
	{
		Name:      "adv_miss",
		QueryKeys: Keys, Zipf: 0, ValueBytes: 64, CacheSize: 0,
		OpenRate: 4000,
	},
	{
		Name:      "write_wal",
		QueryKeys: Keys, Zipf: 1.01, SetFrac: 0.5, ValueBytes: 512, CacheSize: 2000, WAL: true,
		OpenRate: 3000,
	},
	{
		Name:      "serial_rtt",
		QueryKeys: Keys, Zipf: 1.01, SetFrac: 0.1, ValueBytes: 64, CacheSize: 2000, Serial: true,
	},
}

// SpecByName returns the workload called name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("loadgen: unknown workload %q", name)
}

// Distribution returns the key popularity of the workload.
func (s Spec) Distribution() workload.Distribution {
	if s.Zipf == 0 {
		return workload.NewAdversarial(Keys, s.QueryKeys, 0)
	}
	return workload.NewZipf(s.QueryKeys, s.Zipf)
}

// Op is one operation of a stream.
type Op struct {
	Key uint32
	Set bool
}

// Stream is a seeded op sequence. Ops and At are pure functions of the
// seed and the spec; At holds the intended send time of each op as an
// offset from the phase start (nil for a closed loop).
type Stream struct {
	Ops []Op
	At  []int64 // nanoseconds
}

// Phases of a run; each has its own op stream.
const (
	PhaseWarm = iota
	PhaseOpen
	PhaseClosed
)

// Stream seeds, derived from the run seed. The partition seed is derived
// by the harness under a different path and never reaches this package.
const (
	pathKeys     = 1
	pathArrivals = 2
)

// NewOps returns the first n ops of the workload's stream for seed.
// phase separates the streams of the phases of one run.
func NewOps(s Spec, seed uint64, phase uint64, n int) []Op {
	rng := xrand.New(xrand.Derive(seed, pathKeys, phase))
	dist := s.Distribution()
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Key: uint32(dist.Sample(rng)), Set: s.SetFrac > 0 && rng.Float64() < s.SetFrac}
	}
	return ops
}

// NewOpenStream returns the open-loop stream: Poisson arrivals at rate
// ops/s for the given duration, with the op of each arrival.
func NewOpenStream(s Spec, seed uint64, phase uint64, rate float64, seconds float64) *Stream {
	rng := xrand.New(xrand.Derive(seed, pathArrivals, phase))
	limit := int64(seconds * 1e9)
	at := make([]int64, 0, int(rate*seconds*1.05)+16)
	var t float64
	for {
		// Inverse-CDF exponential gap; 1-u is in (0, 1].
		t += -math.Log(1-rng.Float64()) / rate * 1e9
		if int64(t) >= limit {
			break
		}
		at = append(at, int64(t))
	}
	return &Stream{Ops: NewOps(s, seed, phase, len(at)), At: at}
}
