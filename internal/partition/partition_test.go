package partition

import (
	"math"
	"testing"
	"testing/quick"
)

func allKinds(n, d int, seed uint64) map[string]Partitioner {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return map[string]Partitioner{
		"hash":        NewHash(n, d, seed),
		"ring":        NewRing(n, d, seed, 0),
		"rendezvous":  NewRendezvous(n, d, seed),
		"member-ring": NewMemberRing(ids, d, seed, 0),
	}
}

func TestGroupDistinctInRange(t *testing.T) {
	for name, p := range allKinds(17, 4, 42) {
		for key := uint64(0); key < 2000; key++ {
			g := p.Group(key)
			if len(g) != 4 {
				t.Fatalf("%s: group size %d, want 4", name, len(g))
			}
			seen := map[int]bool{}
			for _, node := range g {
				if node < 0 || node >= 17 || seen[node] {
					t.Fatalf("%s: invalid group %v for key %d", name, g, key)
				}
				seen[node] = true
			}
		}
	}
}

func TestGroupDeterministic(t *testing.T) {
	for name, p := range allKinds(20, 3, 7) {
		q := allKinds(20, 3, 7)[name]
		for key := uint64(0); key < 500; key++ {
			a, b := p.Group(key), q.Group(key)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: key %d groups differ: %v vs %v", name, key, a, b)
				}
			}
		}
	}
}

func TestGroupSeedOpacity(t *testing.T) {
	// Different seeds must give (mostly) different groups: a client who
	// does not know the seed cannot predict the mapping.
	for name := range allKinds(2, 1, 0) {
		a := allKinds(50, 3, 1)[name]
		b := allKinds(50, 3, 2)[name]
		identical := 0
		const keys = 1000
		for key := uint64(0); key < keys; key++ {
			ga, gb := a.Group(key), b.Group(key)
			same := true
			for i := range ga {
				if ga[i] != gb[i] {
					same = false
					break
				}
			}
			if same {
				identical++
			}
		}
		// P(same ordered 3-of-50 group) ≈ 1/(50·49·48); anything above a
		// few per thousand indicates seed leakage.
		if identical > 5 {
			t.Errorf("%s: %d/%d keys kept identical groups across seeds", name, identical, keys)
		}
	}
}

func TestGroupAppendMatchesGroup(t *testing.T) {
	for name, p := range allKinds(12, 3, 9) {
		for key := uint64(0); key < 200; key++ {
			base := []int{-1}
			got := p.GroupAppend(base, key)
			if len(got) != 4 || got[0] != -1 {
				t.Fatalf("%s: GroupAppend did not append (got %v)", name, got)
			}
			want := p.Group(key)
			for i := range want {
				if got[i+1] != want[i] {
					t.Fatalf("%s: GroupAppend %v != Group %v", name, got[1:], want)
				}
			}
		}
	}
}

func TestGroupUniformity(t *testing.T) {
	// Every node should appear in roughly keys*d/n groups.
	const n, d, keys = 20, 3, 40000
	for name, p := range allKinds(n, d, 5) {
		counts := make([]int, n)
		for key := uint64(0); key < keys; key++ {
			for _, node := range p.Group(key) {
				counts[node]++
			}
		}
		want := float64(keys) * d / n
		for node, c := range counts {
			// The ring's vnode placement is noisier; allow 20%.
			if math.Abs(float64(c)-want)/want > 0.20 {
				t.Errorf("%s: node %d in %d groups, want within 20%% of %v", name, node, c, want)
			}
		}
	}
}

func TestGroupFullReplication(t *testing.T) {
	// d == n: every group is all nodes.
	for name, p := range allKinds(5, 5, 3) {
		g := p.Group(123)
		seen := map[int]bool{}
		for _, node := range g {
			seen[node] = true
		}
		if len(seen) != 5 {
			t.Errorf("%s: d=n group %v does not cover all nodes", name, g)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	cases := []struct{ n, d int }{{0, 1}, {5, 0}, {5, 6}, {-1, 1}}
	for _, tc := range cases {
		for _, ctor := range []func(){
			func() { NewHash(tc.n, tc.d, 1) },
			func() { NewRing(tc.n, tc.d, 1, 0) },
			func() { NewRendezvous(tc.n, tc.d, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("constructor with n=%d d=%d did not panic", tc.n, tc.d)
					}
				}()
				ctor()
			}()
		}
	}
}

func TestNewByKind(t *testing.T) {
	for _, kind := range []Kind{KindHash, KindRing, KindRendezvous, ""} {
		p, err := New(kind, 10, 3, 1)
		if err != nil {
			t.Fatalf("New(%q) error: %v", kind, err)
		}
		if p.Nodes() != 10 || p.Replicas() != 3 {
			t.Errorf("New(%q) accessors wrong", kind)
		}
	}
	if _, err := New("bogus", 10, 3, 1); err == nil {
		t.Error("New(bogus) did not error")
	}
}

func TestHashGroupQuickProperty(t *testing.T) {
	p := NewHash(31, 3, 99)
	f := func(key uint64) bool {
		g := p.Group(key)
		if len(g) != 3 {
			return false
		}
		return g[0] != g[1] && g[1] != g[2] && g[0] != g[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHashGroup(b *testing.B) {
	p := NewHash(1000, 3, 1)
	buf := make([]int, 0, 3)
	for i := 0; i < b.N; i++ {
		buf = p.GroupAppend(buf[:0], uint64(i))
	}
	_ = buf
}

func BenchmarkRingGroup(b *testing.B) {
	p := NewRing(1000, 3, 1, 0)
	for i := 0; i < b.N; i++ {
		p.Group(uint64(i))
	}
}

func BenchmarkRendezvousGroup(b *testing.B) {
	p := NewRendezvous(1000, 3, 1)
	for i := 0; i < b.N; i++ {
		p.Group(uint64(i))
	}
}
