package stats

import (
	"fmt"
	"math"
)

// P2Quantile estimates a single quantile online with O(1) memory using the
// P² algorithm (Jain & Chlamtac, 1985). It is used where the harness cannot
// afford to retain all samples (e.g. per-request latencies in the kvstore).
type P2Quantile struct {
	q       float64
	n       int
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	inc     [5]float64
	initial []float64
}

// NewP2Quantile returns an estimator for the q-quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: NewP2Quantile with q=%v", q))
	}
	p := &P2Quantile{q: q, initial: make([]float64, 0, 5)}
	p.desired = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add records one observation.
func (p *P2Quantile) Add(x float64) {
	if p.n < 5 {
		p.initial = append(p.initial, x)
		p.n++
		if p.n == 5 {
			sortFive(p.initial)
			copy(p.heights[:], p.initial)
			p.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	p.n++
	// Find cell k such that heights[k] <= x < heights[k+1].
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.desired {
		p.desired[i] += p.inc[i]
	}
	// Adjust the three middle markers if needed.
	for i := 1; i <= 3; i++ {
		d := p.desired[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// N returns the number of observations so far.
func (p *P2Quantile) N() int { return p.n }

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact sample quantile.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	if p.n < 5 {
		tmp := make([]float64, len(p.initial))
		copy(tmp, p.initial)
		return Quantile(tmp, p.q)
	}
	return p.heights[2]
}

func sortFive(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
