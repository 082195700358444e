package social

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// The accessors below read a Graph the way the generator tests need to;
// production code only reads Degree.

func (g *Graph) Len() int { return len(g.degree) }

func (g *Graph) NumEdges() int {
	sum := 0
	for _, d := range g.degree {
		sum += d
	}
	return sum / 2
}

func (g *Graph) HasEdge(u, v int) bool { return u != v && g.adj[u].Contains(v) }

func (g *Graph) Neighbors(u int) []int {
	var out []int
	g.adj[u].ForEach(func(v int) { out = append(out, v) })
	return out
}

func (g *Graph) MeanDegree() float64 {
	if g.Len() == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.Len())
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate ignored
	g.AddEdge(3, 3) // self loop ignored
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Fatal("spurious edge")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: deg(1)=%d deg(3)=%d", g.Degree(1), g.Degree(3))
	}
	if n := g.Neighbors(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", n)
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 7
	idx := int64(0)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ga, gb := pairFromIndex(idx, n)
			if ga != a || gb != b {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, ga, gb, a, b)
			}
			idx++
		}
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	for _, p := range []float64{0.05, 0.3, 0.5, 0.9} {
		rng := xrand.New(int64(p * 1000))
		const n = 200
		g := ErdosRenyi(n, p, rng)
		total := float64(n * (n - 1) / 2)
		rate := float64(g.NumEdges()) / total
		if math.Abs(rate-p) > 0.04 {
			t.Errorf("p=%v: edge rate %v", p, rate)
		}
	}
}

func TestErdosRenyiSparsePathMatchesDensity(t *testing.T) {
	// p=0.05 exercises the geometric-skipping path; verify mean degree.
	rng := xrand.New(42)
	const n, p = 1000, 0.02
	g := ErdosRenyi(n, p, rng)
	want := p * float64(n-1)
	if got := g.MeanDegree(); math.Abs(got-want) > 0.2*want {
		t.Errorf("mean degree %v, want ≈%v", got, want)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := xrand.New(1)
	if g := ErdosRenyi(50, 0, rng); g.NumEdges() != 0 {
		t.Error("p=0 has edges")
	}
	if g := ErdosRenyi(50, 1, rng); g.NumEdges() != 50*49/2 {
		t.Errorf("p=1 has %d edges", g.NumEdges())
	}
	if g := ErdosRenyi(1, 0.5, rng); g.NumEdges() != 0 {
		t.Error("single-vertex graph has edges")
	}
	if g := ErdosRenyi(0, 0.5, rng); g.Len() != 0 {
		t.Error("empty graph wrong size")
	}
}

func TestAffiliation(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {2, 3}, {4}}
	g := Affiliation(6, groups)
	wantEdges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if g.Degree(5) != 0 {
		t.Error("isolated user has edges")
	}
}

func TestAffiliationOverlappingGroupsNoDoubleCount(t *testing.T) {
	// users 0,1 share two groups; the edge must be counted once
	g := Affiliation(2, [][]int{{0, 1}, {0, 1}})
	if g.NumEdges() != 1 || g.Degree(0) != 1 {
		t.Errorf("edges=%d deg0=%d, want 1,1", g.NumEdges(), g.Degree(0))
	}
}

func BenchmarkErdosRenyi2000Dense(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ErdosRenyi(2000, 0.5, rng)
	}
}

func BenchmarkErdosRenyi2000Sparse(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ErdosRenyi(2000, 0.01, rng)
	}
}
