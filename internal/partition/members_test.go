package partition

import (
	"testing"
)

// movedOrFatal wraps MovedFraction for the regression tests below.
func movedOrFatal(t *testing.T, a, b Partitioner, samples int) float64 {
	t.Helper()
	f, err := MovedFraction(a, b, samples)
	if err != nil {
		t.Fatalf("MovedFraction: %v", err)
	}
	return f
}

// MemberRing is the variant live membership uses: removing a middle
// member (a drain, leaving a hole in the ID space) moves only the
// drained member's arcs, where Remap-wrapped dense partitioners shift
// every later member's identity.
func TestMemberRingMovedFractionOnDrain(t *testing.T) {
	const d, samples = 3, 20000
	const seed = 0xBEEF
	before := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	after := []int{0, 1, 2, 3, 5, 6, 7, 8, 9} // member 4 drained

	moved := movedOrFatal(t, NewMemberRing(before, d, seed, 0), NewMemberRing(after, d, seed, 0), samples)
	// Floor: every key member 4 served must move, ≈ d/n = 0.3.
	if moved > 0.40 {
		t.Errorf("member-ring drain moved %.3f, want ≤ 0.40 (~d/n = %.3f)", moved, float64(d)/10)
	}
	if moved < 0.10 {
		t.Errorf("member-ring drain moved %.3f — drained member was serving almost nothing", moved)
	}

	// The dense-remap baseline this replaces: the same drain through
	// Remap(Hash) reshuffles nearly everything.
	remapBefore := NewRemap(NewHash(len(before), d, seed), before)
	remapAfter := NewRemap(NewHash(len(after), d, seed), after)
	remapMoved := movedOrFatal(t, remapBefore, remapAfter, samples)
	if remapMoved < 0.90 {
		t.Errorf("remap(hash) drain moved %.3f — baseline changed", remapMoved)
	}
}

func TestMemberRingMovedFractionOnJoin(t *testing.T) {
	const d, samples = 3, 20000
	before := []int{0, 1, 2, 3, 4}
	after := []int{0, 1, 2, 3, 4, 7} // joiner gets a non-contiguous ID

	moved := movedOrFatal(t, NewMemberRing(before, d, 99, 0), NewMemberRing(after, d, 99, 0), samples)
	if moved > 0.75 {
		t.Errorf("member-ring join moved %.3f, want ≤ 0.75 (~d/(n+1) = %.3f)", moved, float64(d)/6)
	}
	if moved < 0.15 {
		t.Errorf("member-ring join moved %.3f — joiner is not taking its share", moved)
	}
}

// Seed rotation reshuffles the ring too: vnode placement is seed-keyed.
func TestMemberRingSeedRotationStillReshuffles(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	moved := movedOrFatal(t, NewMemberRing(ids, 3, 1, 0), NewMemberRing(ids, 3, 2, 0), 10000)
	if moved < 0.90 {
		t.Errorf("seed change moved only %.3f of keys", moved)
	}
}

func TestMemberRingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"duplicate": func() { NewMemberRing([]int{1, 1}, 1, 0, 0) },
		"negative":  func() { NewMemberRing([]int{-1, 2}, 1, 0, 0) },
		"d>n":       func() { NewMemberRing([]int{1, 2}, 3, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
