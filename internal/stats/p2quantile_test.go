package stats

import (
	"math"
	"testing"

	"securecache/internal/xrand"
)

func TestP2QuantileAgainstExact(t *testing.T) {
	rng := xrand.New(5)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		p := NewP2Quantile(q)
		samples := make([]float64, 0, 50000)
		for i := 0; i < 50000; i++ {
			x := rng.Float64()
			p.Add(x)
			samples = append(samples, x)
		}
		exact := Quantile(samples, q)
		if math.Abs(p.Value()-exact) > 0.01 {
			t.Errorf("P2(%v) = %v, exact %v", q, p.Value(), exact)
		}
		if p.N() != 50000 {
			t.Errorf("P2 N = %d, want 50000", p.N())
		}
	}
}

func TestP2QuantileSmallN(t *testing.T) {
	p := NewP2Quantile(0.5)
	if !math.IsNaN(p.Value()) {
		t.Error("empty P2 estimator should return NaN")
	}
	p.Add(3)
	p.Add(1)
	p.Add(2)
	if got := p.Value(); got != 2 {
		t.Errorf("P2 median of {1,2,3} = %v, want 2", got)
	}
}

func TestP2QuantilePanicsOnBadQ(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func BenchmarkP2Add(b *testing.B) {
	p := NewP2Quantile(0.99)
	for i := 0; i < b.N; i++ {
		p.Add(float64(i % 1000))
	}
}
