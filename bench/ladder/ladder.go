// Package ladder is the benchmark's traced run: an in-process cluster,
// one caller, and the same seeded op stream fed to a ladder of public
// entry points — the full client path at the top, single layers at the
// bottom. Every call is recorded as a span from this package (spans
// inside the program are a later change), and a layer's self time is
// its rung minus the rungs it contains.
package ladder

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"securecache/bench/loadgen"
	"securecache/internal/cache"
	"securecache/internal/core"
	"securecache/internal/kvstore"
	"securecache/internal/partition"
	"securecache/internal/proto"
	"securecache/internal/wal"
)

// Ops is how many ops of the workload's stream every rung replays. With
// one caller and a fixed count, the counts in the trace repeat exactly.
const Ops = 20000

// syncEvery is how many appends the WAL rung makes between two Syncs.
const syncEvery = 1000

// Metrics lists the per-layer metrics the traced run produces.
var Metrics = []string{
	"proto.codec_ns", "proto.allocs_per_op",
	"cache.get_ns", "cache.put_ns",
	"partition.group_ns",
	"kvstore.store.get_ns", "kvstore.store.set_ns", "kvstore.store.allocs_per_op",
	"wal.append_ns", "wal.sync_ms", "wal.replay_ms",
	"kvstore.backend.rtt_ns", "kvstore.backend.ping_ns",
	"kvstore.client.self_ns", "kvstore.client.ping_ns",
	"kvstore.frontend.self_ns", "kvstore.frontend.allocs_per_op",
	"trace.unexplained_frac", "trace.overhead_frac",
}

// Options configures a traced run.
type Options struct {
	Spec               loadgen.Spec
	Seed               uint64
	Nodes, Replication int
	KOverride          float64
	PartitionSeed      uint64
	OutDir             string
}

// Result is what a traced run measured.
type Result struct {
	Values map[string]float64
	Notes  []string
}

// span is one recorded call. Spans of one op share its index; parent is
// the index of the enclosing span or -1.
type span struct {
	name       uint8
	op, parent int32
	start, end int64
}

// Span names, in the order of the names table of the trace file.
const (
	spClientOp uint8 = iota
	spClientPing
	spFrontendOp
	spBackendGet
	spBackendSet
	spBackendPing
	spStoreGet
	spStoreSet
	spWALAppend
	spWALSync
	spWALOpen
	spCacheGet
	spCachePut
	spCachePutIfPresent
	spPartitionGroup
	spProtoCodec
	spProtoAppendRequest
	spProtoReadRequest
	spProtoAppendResponse
	spProtoReadResponse
	spClock
)

var spanNames = [...]string{
	"kvstore.client.op", "kvstore.client.ping", "kvstore.frontend.op",
	"kvstore.backend.get", "kvstore.backend.set", "kvstore.backend.ping",
	"kvstore.store.get", "kvstore.store.set",
	"wal.append", "wal.sync", "wal.open",
	"cache.get", "cache.put", "cache.put_if_present",
	"partition.group",
	"proto.codec", "proto.append_request", "proto.read_request", "proto.append_response", "proto.read_response",
	"trace.clock",
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(name uint8, op int, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{name: name, op: int32(op), parent: parent, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// durations returns the lengths of the spans called name whose op
// satisfies keep (nil keeps all), less the clock's own cost.
func (r *recorder) durations(name uint8, clock int64, keep func(op int32) bool) []int64 {
	var out []int64
	for _, s := range r.spans {
		if s.name == name && (keep == nil || keep(s.op)) {
			out = append(out, max(s.end-s.start-clock, 0))
		}
	}
	return out
}

func p50(ds []int64) float64 { return float64(loadgen.QuantileOf(ds, 0.5)) }

// mean returns the mean of ds without its slowest hundredth: the host
// holds a thread back for a millisecond or more a few times per second,
// and one such stall would otherwise move the mean of a 20 us rung by
// several percent.
func mean(ds []int64) float64 {
	sorted := append([]int64(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sorted = sorted[:len(sorted)-len(sorted)/100]
	if len(sorted) == 0 {
		return 0
	}
	var sum int64
	for _, d := range sorted {
		sum += d
	}
	return float64(sum) / float64(len(sorted))
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Run executes the traced run of one workload and writes its spans to
// OutDir/trace_<workload>.json.
func Run(o Options) (*Result, error) {
	spec := o.Spec
	phase := uint64(loadgen.PhaseOpen)
	if spec.Serial {
		phase = loadgen.PhaseClosed
	}
	stream := loadgen.NewOps(spec, o.Seed, phase, 2*Ops)
	ops, plain := stream[:Ops], stream[Ops:]
	isGet := func(op int32) bool { return !ops[op].Set }
	isSet := func(op int32) bool { return ops[op].Set }

	size := spec.CacheSize
	if size == 0 {
		size = core.Params{Nodes: o.Nodes, Replication: o.Replication, Items: 1, KOverride: o.KOverride}.RequiredCacheSize()
	}
	newCache := func() (*cache.Sharded, error) { return cache.NewSharded(cache.Kind("lfu"), size, 0) }
	frontCache, err := newCache()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	lc, err := kvstore.StartLocalCluster(kvstore.LocalConfig{
		Nodes: o.Nodes, Replication: o.Replication, PartitionSeed: o.PartitionSeed,
		Cache:     frontCache,
		Provision: kvstore.ProvisionConfig{Items: loadgen.Keys, KOverride: o.KOverride},
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer lc.Close()

	// Every key goes straight into the stores of its replica group, so
	// the stores are as large as in the out-of-process run without
	// paying 200 000 quorum writes.
	state := loadgen.NewKeyState(loadgen.Keys)
	const bootEpoch, preloadVer = 1, 1
	var buf []byte
	for k, name := range state.Names {
		buf = loadgen.AppendValue(buf[:0], uint32(k), 1, spec.ValueBytes)
		for _, node := range lc.Frontend.Group(name) {
			lc.Backends[node].Store().SetVersioned(name, append([]byte(nil), buf...), bootEpoch, preloadVer)
		}
		state.Ack(uint32(k), 1)
	}
	var walDirs []string
	defer func() {
		for _, dir := range walDirs {
			os.RemoveAll(dir)
		}
	}()
	walDir := func(name string) (string, error) {
		dir := filepath.Join(o.OutDir, "data", "trace-"+spec.Name+"-"+name)
		walDirs = append(walDirs, dir)
		return dir, os.RemoveAll(dir)
	}
	if spec.WAL {
		// Attached after the preload: the logs then hold the traced
		// writes only. No traffic is in flight yet.
		for i, b := range lc.Backends {
			dir, err := walDir(fmt.Sprintf("node%d", i))
			if err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
			if _, err := b.OpenData(dir, wal.Options{}); err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
		}
	}

	tgt := &loadgen.Target{ValueBytes: spec.ValueBytes, State: state}
	depth := loadgen.PipelineDepth
	if spec.Serial {
		depth = 0
	}
	client := kvstore.NewClientWithConfig(lc.FrontendAddr, kvstore.ClientConfig{PipelineDepth: depth, MaxIdleConns: 1})
	defer client.Close()

	// Warm-up through the frontend, untraced: fills the cache and the
	// frontend's connection pools.
	for _, op := range loadgen.NewOps(spec, o.Seed, loadgen.PhaseWarm, Ops) {
		if buf, err = tgt.Do(lc.Frontend, op, buf); err != nil {
			return nil, fmt.Errorf("ladder: warm-up: %w", err)
		}
	}

	rec := &recorder{base: time.Now(), spans: make([]span, 0, 16*Ops)}
	res := &Result{Values: map[string]float64{}}

	// The clock's own cost, taken off every span.
	for i := 0; i < Ops; i++ {
		t0 := rec.now()
		rec.add(spClock, i, -1, t0, rec.now())
	}
	clock := int64(p50(rec.durations(spClock, 0, nil)))
	res.Notes = append(res.Notes, fmt.Sprintf("trace: reading the clock twice takes %d ns (p50), subtracted from every span", clock))

	// Rung 1: the full path, client to frontend over loopback. Blocks of
	// traced ops alternate with blocks of the stream's next ops run
	// without spans — in turns as to which goes first — so both see the
	// same cache and the difference between their times is what
	// recording costs.
	const block = 500
	traced := func(b int) (int64, error) {
		t := rec.now()
		for i := b; i < b+block; i++ {
			t0 := rec.now()
			if buf, err = tgt.Do(client, ops[i], buf); err != nil {
				return 0, err
			}
			rec.add(spClientOp, i, -1, t0, rec.now())
		}
		return rec.now() - t, nil
	}
	untraced := func(b int) (int64, error) {
		t := rec.now()
		for _, op := range plain[b : b+block] {
			if buf, err = tgt.Do(client, op, buf); err != nil {
				return 0, err
			}
		}
		return rec.now() - t, nil
	}
	var overheads []float64
	for b := 0; b < Ops; b += block {
		first, second := traced, untraced
		if b/block%2 == 1 {
			first, second = untraced, traced
		}
		t1, err := first(b)
		if err != nil {
			return nil, fmt.Errorf("ladder: full path: %w", err)
		}
		t2, err := second(b)
		if err != nil {
			return nil, fmt.Errorf("ladder: full path: %w", err)
		}
		if b/block%2 == 1 {
			t1, t2 = t2, t1
		}
		overheads = append(overheads, float64(t1)/float64(t2)-1)
	}
	for i := 0; i < Ops/10; i++ {
		t0 := rec.now()
		if err := client.Ping(); err != nil {
			return nil, fmt.Errorf("ladder: ping frontend: %w", err)
		}
		rec.add(spClientPing, i, -1, t0, rec.now())
	}

	// Rung 2: the frontend called directly.
	stats0, allocs0 := lc.Frontend.CacheStats(), mallocs()
	for i, op := range ops {
		t0 := rec.now()
		if buf, err = tgt.Do(lc.Frontend, op, buf); err != nil {
			return nil, fmt.Errorf("ladder: frontend: %w", err)
		}
		rec.add(spFrontendOp, i, -1, t0, rec.now())
	}
	frontAllocs := mallocs() - allocs0
	stats1 := lc.Frontend.CacheStats()
	missRatio := 0.0
	if lookups := float64(stats1.Hits+stats1.Misses) - float64(stats0.Hits+stats0.Misses); lookups > 0 {
		missRatio = float64(stats1.Misses-stats0.Misses) / lookups
	}

	// Rung 3: a backend called over the wire, as the frontend calls it on
	// a miss or a write. Writes carry the current content under a newer
	// version, so they change nothing a later read could trip over.
	backends := make([]*kvstore.Client, len(lc.Backends))
	for i, addr := range lc.BackendAddrs {
		backends[i] = kvstore.NewClientWithConfig(addr, kvstore.ClientConfig{MaxIdleConns: 1})
		defer backends[i].Close()
	}
	ver := uint64(time.Now().UnixMicro()) + 1<<20
	for i, op := range ops {
		name := state.Names[op.Key]
		owner := lc.Frontend.Group(name)[0]
		if op.Set {
			buf = loadgen.AppendValue(buf[:0], op.Key, state.Acked(op.Key), spec.ValueBytes)
			ver++
			t0 := rec.now()
			err := backends[owner].SetVersioned(name, buf, bootEpoch, ver)
			rec.add(spBackendSet, i, -1, t0, rec.now())
			if err != nil {
				return nil, fmt.Errorf("ladder: backend: %w", err)
			}
			continue
		}
		t0 := rec.now()
		v, err := backends[owner].Get(name)
		rec.add(spBackendGet, i, -1, t0, rec.now())
		if err != nil {
			return nil, fmt.Errorf("ladder: backend: GET %s: %w", name, err)
		}
		if _, err := loadgen.CheckValue(v, op.Key, spec.ValueBytes); err != nil {
			return nil, fmt.Errorf("ladder: backend: %w", err)
		}
	}
	for i := 0; i < Ops/10; i++ {
		t0 := rec.now()
		if err := backends[i%len(backends)].Ping(); err != nil {
			return nil, fmt.Errorf("ladder: ping backend: %w", err)
		}
		rec.add(spBackendPing, i, -1, t0, rec.now())
	}

	// Rung 4: the store of the owning backend (write-through to its WAL
	// where the workload has one).
	// The store keeps the slice it is given, so every write needs a value
	// of its own; they are built before allocations are counted.
	stores := make([]*kvstore.Store, Ops)
	fresh := make([][]byte, Ops)
	for i, op := range ops {
		stores[i] = lc.Backends[lc.Frontend.Group(state.Names[op.Key])[0]].Store()
		if op.Set {
			fresh[i] = loadgen.AppendValue(nil, op.Key, state.Acked(op.Key), spec.ValueBytes)
		}
	}
	allocs0 = mallocs()
	for i, op := range ops {
		name, store := state.Names[op.Key], stores[i]
		if op.Set {
			ver++
			t0 := rec.now()
			store.SetVersioned(name, fresh[i], bootEpoch, ver)
			rec.add(spStoreSet, i, -1, t0, rec.now())
			continue
		}
		t0 := rec.now()
		_, ok := store.Get(name)
		rec.add(spStoreGet, i, -1, t0, rec.now())
		if !ok {
			return nil, fmt.Errorf("ladder: store: %s missing", name)
		}
	}
	storeAllocs := mallocs() - allocs0

	// Rung 5: a log of its own — append each written value, sync every
	// syncEvery appends, then close and replay it.
	if spec.WAL {
		dir, err := walDir("wal")
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		// The background flusher is off: the rung drives Sync itself.
		walOpts := wal.Options{SyncInterval: -1}
		log, err := wal.Open(dir, walOpts, nil)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		appends := 0
		for i, op := range ops {
			if !op.Set {
				continue
			}
			buf = loadgen.AppendValue(buf[:0], op.Key, state.Acked(op.Key), spec.ValueBytes)
			ver++
			t0 := rec.now()
			err := log.Append(state.Names[op.Key], buf, bootEpoch, ver, false)
			rec.add(spWALAppend, i, -1, t0, rec.now())
			if err == nil {
				if appends++; appends%syncEvery == 0 {
					t0 = rec.now()
					err = log.Sync()
					rec.add(spWALSync, i, -1, t0, rec.now())
				}
			}
			if err != nil {
				log.Close()
				return nil, fmt.Errorf("ladder: wal: %w", err)
			}
		}
		if err := log.Close(); err != nil {
			return nil, fmt.Errorf("ladder: wal: %w", err)
		}
		replayed := 0
		t0 := rec.now()
		log, err = wal.Open(dir, walOpts, func(wal.Record) error { replayed++; return nil })
		rec.add(spWALOpen, 0, -1, t0, rec.now())
		if err != nil {
			return nil, fmt.Errorf("ladder: wal replay: %w", err)
		}
		log.Close()
		res.Notes = append(res.Notes, fmt.Sprintf("trace: wal rung appended %d records, synced every %d, replayed %d keys", appends, syncEvery, replayed))
	}

	// Rung 6: a cache like the frontend's, driven the way the frontend
	// drives it: look up, insert on a miss, refresh on a write.
	layerCache, err := newCache()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for pass := 0; pass < 2; pass++ { // the first pass warms it, unrecorded
		for i, op := range ops {
			name := state.Names[op.Key]
			val := loadgen.AppendValue(nil, op.Key, 1, spec.ValueBytes)
			t0 := rec.now()
			if op.Set {
				layerCache.PutIfPresent(kvstore.KeyID(name), val)
				if pass == 1 {
					rec.add(spCachePutIfPresent, i, -1, t0, rec.now())
				}
				continue
			}
			_, hit := layerCache.Get(kvstore.KeyID(name))
			t1 := rec.now()
			if pass == 1 {
				rec.add(spCacheGet, i, -1, t0, t1)
			}
			if !hit {
				t0 = rec.now()
				layerCache.Put(kvstore.KeyID(name), val)
				if pass == 1 {
					rec.add(spCachePut, i, -1, t0, rec.now())
				}
			}
		}
	}

	// Rung 7: the partitioner.
	part := partition.NewHash(o.Nodes, o.Replication, o.PartitionSeed)
	group := make([]int, 0, o.Replication)
	for i, op := range ops {
		t0 := rec.now()
		group = part.GroupAppend(group[:0], kvstore.KeyID(state.Names[op.Key]))
		rec.add(spPartitionGroup, i, -1, t0, rec.now())
	}

	// Rung 8: the wire codec — what one hop encodes and decodes for an
	// op: request out, request in, response out, response in.
	var frame []byte
	val := loadgen.AppendValue(nil, 0, 1, spec.ValueBytes)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	allocs0 = mallocs()
	for i, op := range ops {
		req := &proto.Request{Op: proto.OpGet, Key: state.Names[op.Key], Corr: uint64(i + 1)}
		resp := &proto.Response{Status: proto.StatusOK, Payload: val, Corr: uint64(i + 1)}
		if op.Set {
			req.Op, req.Value, resp.Payload = proto.OpSet, val, nil
		}
		t0 := rec.now()
		parent := rec.add(spProtoCodec, i, -1, t0, t0)
		frame, err = proto.AppendRequest(frame[:0], req)
		t1 := rec.now()
		rec.add(spProtoAppendRequest, i, parent, t0, t1)
		if err == nil {
			rd.Reset(frame)
			br.Reset(rd)
			var got *proto.Request
			got, err = proto.ReadRequest(br)
			t2 := rec.now()
			rec.add(spProtoReadRequest, i, parent, t1, t2)
			if err == nil {
				proto.ReleaseRequest(got)
				frame, err = proto.AppendResponse(frame[:0], resp)
				t3 := rec.now()
				rec.add(spProtoAppendResponse, i, parent, t2, t3)
				if err == nil {
					rd.Reset(frame)
					br.Reset(rd)
					var back *proto.Response
					back, err = proto.ReadResponse(br)
					t4 := rec.now()
					rec.add(spProtoReadResponse, i, parent, t3, t4)
					if err == nil {
						proto.ReleaseResponse(back)
					}
					rec.spans[parent].end = t4
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ladder: proto: %w", err)
		}
	}
	protoAllocs := mallocs() - allocs0

	// Per-layer metrics. Medians for the layers' own times; means (less
	// the slowest hundredth) for the arithmetic between rungs, because
	// the medians of a mixture of hits and misses do not add.
	v := res.Values
	// The codec's time is the sum of its four calls, op by op; the parent
	// span also holds the clock reads between them.
	codec := rec.durations(spProtoAppendRequest, clock, nil)
	for _, name := range []uint8{spProtoReadRequest, spProtoAppendResponse, spProtoReadResponse} {
		for i, d := range rec.durations(name, clock, nil) {
			codec[i] += d
		}
	}
	v["proto.codec_ns"] = p50(codec)
	v["proto.allocs_per_op"] = float64(protoAllocs) / Ops
	v["cache.get_ns"] = p50(rec.durations(spCacheGet, clock, nil))
	v["cache.put_ns"] = p50(rec.durations(spCachePut, clock, nil))
	v["partition.group_ns"] = p50(rec.durations(spPartitionGroup, clock, nil))
	v["kvstore.store.get_ns"] = p50(rec.durations(spStoreGet, clock, nil))
	v["kvstore.store.set_ns"] = p50(rec.durations(spStoreSet, clock, nil))
	v["kvstore.store.allocs_per_op"] = float64(storeAllocs) / Ops
	v["wal.append_ns"] = p50(rec.durations(spWALAppend, clock, nil))
	v["wal.sync_ms"] = p50(rec.durations(spWALSync, clock, nil)) / 1e6
	v["wal.replay_ms"] = p50(rec.durations(spWALOpen, clock, nil)) / 1e6
	v["kvstore.backend.rtt_ns"] = p50(rec.durations(spBackendGet, clock, nil))
	v["kvstore.backend.ping_ns"] = p50(rec.durations(spBackendPing, clock, nil))
	v["kvstore.client.ping_ns"] = p50(rec.durations(spClientPing, clock, nil))
	v["kvstore.frontend.allocs_per_op"] = float64(frontAllocs) / Ops

	full := mean(rec.durations(spClientOp, clock, isGet))
	direct := mean(rec.durations(spFrontendOp, clock, isGet))
	onMiss := mean(rec.durations(spCachePut, clock, nil)) +
		mean(rec.durations(spPartitionGroup, clock, isGet)) +
		mean(rec.durations(spBackendGet, clock, nil))
	inFrontend := mean(rec.durations(spCacheGet, clock, nil)) + missRatio*onMiss
	v["kvstore.client.self_ns"] = full - direct
	v["kvstore.frontend.self_ns"] = direct - inFrontend
	explained := mean(rec.durations(spClientPing, clock, nil)) + inFrontend
	if full > 0 {
		v["trace.unexplained_frac"] = 1 - explained/full
	}
	v["trace.overhead_frac"] = loadgen.Median(overheads) // over the pairs of blocks
	res.Notes = append(res.Notes, fmt.Sprintf(
		"trace: %d ops, one caller; GET means: full path %.0f ns = client and wire %.0f + frontend %.0f; frontend miss ratio %.4f; SET full path %.0f ns",
		Ops, full, full-direct, direct, missRatio, mean(rec.durations(spClientOp, clock, isSet))))
	if u := v["trace.unexplained_frac"]; u > 0.25 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING trace.unexplained_frac = %.3f > 0.25: the measured layers do not add up to the full path", u))
	}
	return res, writeTrace(filepath.Join(o.OutDir, "trace_"+spec.Name+".json"), spec.Name, o.Seed, clock, rec.spans)
}

// writeTrace writes the spans in a columnar form: one row per span,
// [name index, op, parent span, start ns, end ns].
func writeTrace(path, workload string, seed uint64, clock int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "ops": Ops, "clock_ns": clock, "names": spanNames,
		"columns": []string{"name", "op", "parent", "start_ns", "end_ns"},
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("ladder: %w", err)
	}
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", s.name, s.op, s.parent, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("ladder: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ladder: write %s: %w", path, err)
	}
	return nil
}
