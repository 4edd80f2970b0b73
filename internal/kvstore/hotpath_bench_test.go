package kvstore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"securecache/internal/cache"
)

// Hot-path benchmarks: the serving path the paper's defense depends on.
// The front-end cache absorbs the c hottest keys, so the cached-GET path
// is the one that must scale with cores; BenchmarkFrontendGet drives it
// directly (no wire) at high goroutine counts to expose lock contention,
// and BenchmarkFrontendGetWire measures the same workload end-to-end over
// loopback TCP. Run with -benchmem: allocs/op regressions on these paths
// are throughput regressions at scale.

// benchFrontend boots a small cluster with the given frontend cache and
// fills it with hotKeys cached entries, returning the frontend and the
// hot key names.
func benchFrontend(b *testing.B, c cache.Cache, hotKeys int) (*LocalCluster, []string) {
	b.Helper()
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:         4,
		Replication:   2,
		PartitionSeed: 0xbe5c,
		Cache:         c,
		// Background repair is irrelevant here and only adds noise.
		RepairInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lc.Close() })
	keys := make([]string, hotKeys)
	val := []byte("hot-path-benchmark-value-0123456789abcdef")
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%04d", i)
		if err := lc.Frontend.Set(keys[i], val); err != nil {
			b.Fatal(err)
		}
		// Prime the cache: the first Get fills it.
		if _, err := lc.Frontend.Get(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	return lc, keys
}

// benchCaches enumerates the frontend cache configurations under test.
// "locked" is a plain single-threaded LFU (the frontend serializes it
// behind one mutex — the seed behavior); "sharded" wraps the same policy
// in the concurrency-safe sharded wrapper.
func benchCaches(hotKeys int) map[string]func() (cache.Cache, error) {
	return map[string]func() (cache.Cache, error){
		"locked": func() (cache.Cache, error) { return cache.New(cache.KindLFU, hotKeys*2) },
		"sharded": func() (cache.Cache, error) {
			return cache.NewSharded(cache.KindLFU, hotKeys*2, 0)
		},
	}
}

// BenchmarkFrontendGet drives the frontend's Get directly (no client
// wire) with every key cached: pure hot-path, 16-way concurrent.
func BenchmarkFrontendGet(b *testing.B) {
	const hotKeys = 256
	for name, mk := range benchCaches(hotKeys) {
		b.Run(name, func(b *testing.B) {
			c, err := mk()
			if err != nil {
				b.Skip(err) // "sharded" absent before the wrapper lands
			}
			lc, keys := benchFrontend(b, c, hotKeys)
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := lc.Frontend.Get(keys[i%len(keys)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFrontendGetWire is the same cached-hot-key workload end to end:
// 16 concurrent wire clients against the frontend listener over loopback.
func BenchmarkFrontendGetWire(b *testing.B) {
	const hotKeys = 256
	for name, mk := range benchCaches(hotKeys) {
		b.Run(name, func(b *testing.B) {
			c, err := mk()
			if err != nil {
				b.Skip(err)
			}
			lc, keys := benchFrontend(b, c, hotKeys)
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := NewClient(lc.FrontendAddr)
				defer client.Close()
				i := 0
				for pb.Next() {
					if _, err := client.Get(keys[i%len(keys)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFrontendGetWirePipelined is the wire workload again with
// every parallel worker multiplexed onto ONE shared pipelined client —
// the deployment shape the pipelined transport is built for. Compare
// against BenchmarkFrontendGetWire/sharded for the lockstep baseline.
func BenchmarkFrontendGetWirePipelined(b *testing.B) {
	const hotKeys = 256
	for _, depth := range []int{8, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			c, err := cache.NewSharded(cache.KindLFU, hotKeys*2, 0)
			if err != nil {
				b.Fatal(err)
			}
			lc, keys := benchFrontend(b, c, hotKeys)
			client := NewClientWithConfig(lc.FrontendAddr, ClientConfig{PipelineDepth: depth})
			defer client.Close()
			b.SetParallelism(depth)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := client.Get(keys[i%len(keys)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFrontendGetMiss is the paper's attack path end to end: every
// GET misses the frontend cache and pays the partition lookup, the
// frontend→backend hop and the store read. 16 keys fit the cache and
// the callers walk 8192 keys in order, so an entry is long evicted
// before its key comes round again. The callers share one pipelined
// client, as the benchmark's load generator does.
func BenchmarkFrontendGetMiss(b *testing.B) {
	const keys = 8192
	c, err := cache.NewSharded(cache.KindLFU, 16, 0)
	if err != nil {
		b.Fatal(err)
	}
	lc, err := StartLocalCluster(LocalConfig{
		Nodes:          4,
		Replication:    2,
		PartitionSeed:  0xbe5c,
		Cache:          c,
		RepairInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lc.Close() })
	names := make([]string, keys)
	val := []byte("miss-path-benchmark-value-0123456789abcdef")
	for i := range names {
		names[i] = fmt.Sprintf("miss-%05d", i)
		// Straight into the replicas' stores: the write path is not what
		// this measures, and the cache must start cold.
		for _, node := range lc.Frontend.Group(names[i]) {
			lc.Backends[node].Store().SetVersioned(names[i], val, 0, 1)
		}
	}
	client := NewClientWithConfig(lc.FrontendAddr, ClientConfig{PipelineDepth: 64})
	defer client.Close()
	var next atomic.Uint64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.Get(names[next.Add(1)%keys]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := lc.Frontend.CacheStats()
	b.ReportMetric(float64(st.Misses)/float64(st.Hits+st.Misses), "miss/lookup")
}

// BenchmarkFrontendSet drives the replicated write path directly (no
// client wire): version stamp, the d=2 quorum fan-out over loopback, and
// the cache refresh of a resident key. Serial, so allocs/op is the cost
// of one write.
func BenchmarkFrontendSet(b *testing.B) {
	const hotKeys = 256
	c, err := cache.NewSharded(cache.KindLFU, hotKeys*2, 0)
	if err != nil {
		b.Fatal(err)
	}
	lc, keys := benchFrontend(b, c, hotKeys)
	val := []byte("hot-path-benchmark-value-0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lc.Frontend.Set(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStore exercises the storage engine alone, concurrently.
func BenchmarkStore(b *testing.B) {
	const keys = 4096
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("store-key-%05d", i)
	}
	val := []byte("store-benchmark-value-0123456789abcdef")

	b.Run("Get", func(b *testing.B) {
		s := NewStore()
		for _, k := range names {
			s.Set(k, val)
		}
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := s.Get(names[i%keys]); !ok {
					b.Error("missing key")
					return
				}
				i++
			}
		})
	})

	b.Run("SetVersioned", func(b *testing.B) {
		s := NewStore()
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.SetVersioned(names[i%keys], val, 0, uint64(i+1))
				i++
			}
		})
	})

	b.Run("MixedReadHeavy", func(b *testing.B) {
		s := NewStore()
		for _, k := range names {
			s.Set(k, val)
		}
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%16 == 0 {
					s.SetVersioned(names[i%keys], val, 0, uint64(i+1))
				} else {
					s.Get(names[i%keys])
				}
				i++
			}
		})
	})

	b.Run("Len", func(b *testing.B) {
		s := NewStore()
		for _, k := range names {
			s.Set(k, val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Len() != keys {
				b.Fatal("bad length")
			}
		}
	})
}
