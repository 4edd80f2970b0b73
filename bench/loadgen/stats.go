package loadgen

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (nearest rank) of sorted, or 0 when
// it is empty.
func Quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// QuantileOf returns the q-quantile of vs, which it leaves as it is.
func QuantileOf(vs []int64, q float64) int64 {
	sorted := append([]int64(nil), vs...)
	sortInt64s(sorted)
	return Quantile(sorted, q)
}

// Median returns the median of vs (the mean of the two middle values
// for an even count), or 0 when it is empty. It sorts vs.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// Latency summarises the latencies of one op type in one phase.
type Latency struct {
	Count      int     // samples
	P50us      float64 // median over the whole phase
	QuietP50us float64 // lowest decile of the per-quiet-window medians
	P95us      float64 // median of the per-window p95s
	P99us      float64 // median of the per-window p99s
	Windows    int     // windows that had enough samples for the tail
}

// minWindowSamples is the fewest samples a window needs for its p99 to
// have ten samples beyond it.
const minWindowSamples = 1000

// The quiet median: the phase is cut into windows of quietWindowNs, the
// median of each window with at least minQuietSamples samples is taken,
// and the lowest decile of those medians is reported. The shared host
// only ever adds latency, and adds it in bursts (a stolen processor, a
// slow minute), so the quietest tenth of the run is where the program
// itself is measured (bench/README.md, Observed spread, has the
// numbers). It needs a latency distribution with one mode: where hits
// and misses mix about evenly (serial_rtt) the window medians swing
// between the two modes and the median over the whole phase is the
// steadier number.
const (
	quietWindowNs   = int64(250 * time.Millisecond)
	minQuietSamples = 100
	minQuietWindows = 10
)

func sortInt64s(vs []int64) { sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] }) }

// Summarise returns the latency summary of the SET (set = true) or GET
// samples. The tail percentiles are taken per window of windowNs (by
// Start) and the median of the windows is reported, so that one
// disturbed second moves one window and not the result; windows with
// fewer than minWindowSamples samples are left out, and with no full
// window the tail is taken over the whole phase. With fewer than
// minQuietWindows quiet windows the quiet median is the plain one.
func Summarise(samples []Sample, set bool, windowNs int64) Latency {
	var all []int64
	byWindow, byQuiet := map[int64][]int64{}, map[int64][]int64{}
	for _, s := range samples {
		if s.Set != set {
			continue
		}
		all = append(all, s.Lat)
		w, q := s.Start/windowNs, s.Start/quietWindowNs
		byWindow[w] = append(byWindow[w], s.Lat)
		byQuiet[q] = append(byQuiet[q], s.Lat)
	}
	sortInt64s(all)
	out := Latency{Count: len(all), P50us: float64(Quantile(all, 0.50)) / 1e3}

	var medians []int64
	for _, lats := range byQuiet {
		if len(lats) >= minQuietSamples {
			sortInt64s(lats)
			medians = append(medians, Quantile(lats, 0.50))
		}
	}
	sortInt64s(medians)
	out.QuietP50us = out.P50us
	if len(medians) >= minQuietWindows {
		out.QuietP50us = float64(Quantile(medians, 0.10)) / 1e3
	}

	var p95s, p99s []float64
	for _, lats := range byWindow {
		if len(lats) < minWindowSamples {
			continue
		}
		sortInt64s(lats)
		p95s = append(p95s, float64(Quantile(lats, 0.95))/1e3)
		p99s = append(p99s, float64(Quantile(lats, 0.99))/1e3)
	}
	out.Windows = len(p99s)
	if out.Windows == 0 {
		out.P95us, out.P99us = float64(Quantile(all, 0.95))/1e3, float64(Quantile(all, 0.99))/1e3
	} else {
		out.P95us, out.P99us = Median(p95s), Median(p99s)
	}
	return out
}

// Throughput returns verified-OK replies per second in a closed-loop
// phase: replies are counted per window of windowNs by completion time
// and the median over the full windows is reported (the mean over the
// phase when it is shorter than one window).
func Throughput(res *Result, windowNs int64) float64 {
	full := int64(res.Elapsed) / windowNs
	if full < 1 {
		if res.Elapsed <= 0 {
			return 0
		}
		return float64(len(res.Samples)) / res.Elapsed.Seconds()
	}
	counts := make([]float64, full)
	for _, s := range res.Samples {
		if w := (s.Start + s.Lat) / windowNs; w < full {
			counts[w]++
		}
	}
	return Median(counts) * 1e9 / float64(windowNs)
}

// LagP99us returns the 99th percentile of how late the open-loop
// generator sent, in microseconds.
func LagP99us(lags []int64) float64 { return float64(QuantileOf(lags, 0.99)) / 1e3 }
