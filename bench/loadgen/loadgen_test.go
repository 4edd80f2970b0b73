package loadgen

import (
	"bufio"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/proto"
	"securecache/internal/workload"
)

// The schedule and the key stream are a pure function of the seed.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range Specs {
		a := NewOpenStream(spec, 7, PhaseOpen, 5000, 0.5)
		b := NewOpenStream(spec, 7, PhaseOpen, 5000, 0.5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", spec.Name)
		}
		c := NewOpenStream(spec, 8, PhaseOpen, 5000, 0.5)
		if reflect.DeepEqual(a.At, c.At) || reflect.DeepEqual(a.Ops, c.Ops) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", spec.Name)
		}
		if d := NewOps(spec, 7, PhaseClosed, len(a.Ops)); reflect.DeepEqual(a.Ops, d) {
			t.Errorf("%s: open and closed phases share a stream", spec.Name)
		}
		// A longer stream extends a shorter one: the traced run's first
		// ops are the timed run's first ops.
		if long := NewOps(spec, 7, PhaseOpen, len(a.Ops)+100); !reflect.DeepEqual(a.Ops, long[:len(a.Ops)]) {
			t.Errorf("%s: a longer stream does not start with the shorter one", spec.Name)
		}
	}
}

func TestOpenStreamIsPoissonAtTheRate(t *testing.T) {
	st := NewOpenStream(Specs[0], 1, PhaseOpen, 20000, 2)
	if n := len(st.At); n < 39000 || n > 41000 {
		t.Fatalf("%d arrivals in 2 s at 20000/s", n)
	}
	for i := 1; i < len(st.At); i++ {
		if st.At[i] < st.At[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	if last := st.At[len(st.At)-1]; last >= 2e9 {
		t.Fatalf("arrival at %d ns, after the phase end", last)
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, spec := range Specs {
		ops := NewOps(spec, 3, PhaseOpen, 20000)
		sets, maxKey := 0, uint32(0)
		for _, op := range ops {
			if op.Set {
				sets++
			}
			maxKey = max(maxKey, op.Key)
		}
		if got := float64(sets) / float64(len(ops)); got < spec.SetFrac-0.02 || got > spec.SetFrac+0.02 {
			t.Errorf("%s: SET share %.3f, want %.2f", spec.Name, got, spec.SetFrac)
		}
		if int(maxKey) >= spec.QueryKeys {
			t.Errorf("%s: key %d outside the %d queried keys", spec.Name, maxKey, spec.QueryKeys)
		}
	}
}

func TestValueChecks(t *testing.T) {
	v := AppendValue(nil, 42, 7, 64)
	if seq, err := CheckValue(v, 42, 64); err != nil || seq != 7 {
		t.Fatalf("CheckValue = %d, %v", seq, err)
	}
	if _, err := CheckValue(v, 43, 64); err == nil {
		t.Error("another key's value passed")
	}
	if _, err := CheckValue(v[:63], 42, 64); err == nil {
		t.Error("a short value passed")
	}
	v[20] ^= 1
	if _, err := CheckValue(v, 42, 64); err == nil {
		t.Error("a corrupt value passed")
	}
}

// fakeServer answers GETs with valid values over the wire protocol, one
// request at a time per connection, and stalls once for stall before
// answering request number stallAt.
func fakeServer(t *testing.T, valueBytes int, stallAt int64, stall time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var served atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				var frame []byte
				for {
					req, err := proto.ReadRequest(r)
					if err != nil {
						return
					}
					if served.Add(1) == stallAt {
						time.Sleep(stall)
					}
					resp := &proto.Response{Status: proto.StatusOK, Corr: req.Corr}
					if req.Op == proto.OpGet {
						key, err := workload.ParseKeyName(req.Key)
						if err != nil {
							return
						}
						resp.Payload = AppendValue(nil, uint32(key), 1, valueBytes)
					}
					if frame, err = proto.AppendResponse(frame[:0], resp); err != nil {
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// Latency runs from the intended send time: when the server stalls for
// 50 ms, every request that was due during the stall is charged its share
// of it. A generator that timed from the actual send (or that stopped
// sending while it waited) would report one slow request.
func TestOpenLoopChargesAStallToEveryDelayedRequest(t *testing.T) {
	const stall = 50 * time.Millisecond
	spec := Specs[0]
	addr := fakeServer(t, spec.ValueBytes, 200, stall)
	c := kvstore.NewClientWithConfig(addr, kvstore.ClientConfig{PipelineDepth: PipelineDepth})
	defer c.Close()
	tgt := &Target{Clients: []*kvstore.Client{c}, ValueBytes: spec.ValueBytes, State: NewKeyState(spec.QueryKeys)}
	st := NewOpenStream(spec, 1, PhaseOpen, 1000, 0.6) // one arrival per ms
	res := tgt.Open(st, OpenWorkers, time.Second)
	if res.Failed() != 0 || len(res.Samples) != len(st.Ops) {
		t.Fatalf("%d of %d ops failed: %s", res.Failed(), len(st.Ops), res.FirstFailure)
	}
	var delayed int
	var worst int64
	for _, s := range res.Samples {
		if s.Lat >= int64(stall/2) {
			delayed++
		}
		worst = max(worst, s.Lat)
	}
	// About 25 arrivals fall in the first half of the stall.
	if delayed < 15 {
		t.Errorf("%d requests took at least %v; the stall was not charged to the requests it delayed", delayed, stall/2)
	}
	if worst < int64(stall*9/10) {
		t.Errorf("worst latency %v, want about %v", time.Duration(worst), stall)
	}
	// The 50 requests the stall holds up fit the in-flight window, so
	// the generator keeps to its schedule meanwhile.
	if lag := LagP99us(res.Lags); lag > 10000 {
		t.Errorf("generator lag p99 %.0f us: the generator itself waited for the server", lag)
	}
}

func TestClosedLoopVerifiesAndCounts(t *testing.T) {
	spec := Specs[0]
	addr := fakeServer(t, spec.ValueBytes, -1, 0)
	c := kvstore.NewClientWithConfig(addr, kvstore.ClientConfig{PipelineDepth: PipelineDepth})
	defer c.Close()
	state := NewKeyState(spec.QueryKeys)
	tgt := &Target{Clients: []*kvstore.Client{c}, ValueBytes: spec.ValueBytes, State: state}
	res := tgt.Closed(NewOps(spec, 1, PhaseClosed, 1000), 4, 100*time.Millisecond)
	if res.Attempted == 0 || res.Failed() != 0 || res.Attempted != len(res.Samples) {
		t.Fatalf("attempted %d, failed %d, samples %d: %s", res.Attempted, res.Failed(), len(res.Samples), res.FirstFailure)
	}
	// The fake server always answers with write 1: once write 2 of a key
	// has been acknowledged, that answer is stale and must be caught.
	state.Ack(0, 2)
	if _, err := tgt.Do(c, Op{Key: 0}, nil); err == nil {
		t.Error("a stale value passed")
	}
}

// The reported p99 is the median of the per-window p99s, so a disturbed
// window does not set it.
func TestP99IsTheMedianOfWindows(t *testing.T) {
	const window = int64(time.Second)
	var samples []Sample
	for w := int64(0); w < 5; w++ {
		for i := 0; i < 2000; i++ {
			lat := int64(100_000 + i) // 100 us and a bit
			if w == 2 && i%10 == 0 {
				lat = 50_000_000 // one window has a 50 ms tail
			}
			samples = append(samples, Sample{Start: w*window + int64(i), Lat: lat})
		}
	}
	got := Summarise(samples, false, window)
	if got.Windows != 5 || got.Count != 10000 {
		t.Fatalf("windows %d, count %d", got.Windows, got.Count)
	}
	if got.P99us < 100 || got.P99us > 103 || got.P95us < 100 || got.P95us > got.P99us {
		t.Errorf("p95 %.1f us, p99 %.1f us, want the undisturbed windows' 102", got.P95us, got.P99us)
	}
	if set := Summarise(samples, true, window); set.Count != 0 || set.P99us != 0 {
		t.Errorf("SET summary of GET samples: %+v", set)
	}
}

// The quiet median is taken where the host left the run alone: with
// three quarters of the quarter-seconds disturbed it still reports the
// undisturbed latency, and a phase too short for ten windows falls back
// on the plain median.
func TestQuietMedianIsTheQuietestTenthOfTheWindows(t *testing.T) {
	const quarter = int64(250 * time.Millisecond)
	var samples []Sample
	for w := int64(0); w < 40; w++ {
		for i := 0; i < 200; i++ {
			lat := int64(100_000 + i)
			if w%4 != 0 {
				lat *= 3
			}
			samples = append(samples, Sample{Start: w*quarter + int64(i), Lat: lat})
		}
	}
	got := Summarise(samples, false, int64(time.Second))
	if got.P50us < 300 || got.QuietP50us < 100 || got.QuietP50us > 101 {
		t.Errorf("median %.1f us, quiet median %.1f us, want about 300 and 100", got.P50us, got.QuietP50us)
	}
	short := Summarise(samples[:9*200], false, int64(time.Second))
	if short.QuietP50us != short.P50us {
		t.Errorf("9 windows: quiet median %.1f us, want the plain median %.1f", short.QuietP50us, short.P50us)
	}
}

func TestThroughputIsTheMedianWindow(t *testing.T) {
	const window = int64(time.Second)
	res := &Result{Elapsed: 3*time.Second + time.Millisecond}
	for w, n := range []int{1000, 10, 1200} { // the second window stalled
		for i := 0; i < n; i++ {
			res.Samples = append(res.Samples, Sample{Start: int64(w) * window, Lat: int64(i)})
		}
	}
	if got := Throughput(res, window); got != 1000 {
		t.Errorf("throughput %.0f, want 1000", got)
	}
}
