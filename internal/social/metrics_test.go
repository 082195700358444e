package social

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// The clustering metrics below are the oracle of the generator tests in
// this file; no production code reads them.

// localClustering returns vertex u's local clustering coefficient: the
// fraction of its neighbour pairs that are themselves adjacent
// (0 for degree < 2).
func (g *Graph) localClustering(u int) float64 {
	d := g.degree[u]
	if d < 2 {
		return 0
	}
	neigh := g.Neighbors(u)
	closed := 0
	for i, a := range neigh {
		for _, b := range neigh[i+1:] {
			if g.HasEdge(a, b) {
				closed++
			}
		}
	}
	return float64(closed) / float64(d*(d-1)/2)
}

// meanClustering returns the average local clustering coefficient over all
// vertices (Watts–Strogatz definition).
func meanClustering(g *Graph) float64 {
	if g.Len() == 0 {
		return 0
	}
	sum := 0.0
	for u := 0; u < g.Len(); u++ {
		sum += g.localClustering(u)
	}
	return sum / float64(g.Len())
}

func TestLocalClustering(t *testing.T) {
	// triangle plus a pendant: clustering(0)=1 among {1,2}, vertex 3 pendant
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if got := g.localClustering(0); got != 1 {
		t.Errorf("clustering(0) = %v, want 1", got)
	}
	if got := g.localClustering(3); got != 0 {
		t.Errorf("pendant clustering = %v, want 0", got)
	}
	// vertex 2 has neighbours {0,1,3}: pairs (0,1) closed, (0,3),(1,3) open
	if got := g.localClustering(2); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("clustering(2) = %v, want 1/3", got)
	}
}

func TestCliqueIsFullyClustered(t *testing.T) {
	g := Affiliation(5, [][]int{{0, 1, 2, 3, 4}})
	if got := meanClustering(g); got != 1 {
		t.Errorf("clique clustering = %v, want 1", got)
	}
}

// The structural fingerprint that separates the two generator families: an
// affiliation (union-of-cliques) graph is far more clustered than an
// Erdős–Rényi graph of similar density.
func TestAffiliationMoreClusteredThanER(t *testing.T) {
	rng := xrand.New(6)
	const n = 300
	groups := make([][]int, 30)
	for gi := range groups {
		size := 5 + rng.Intn(15)
		for k := 0; k < size; k++ {
			groups[gi] = append(groups[gi], rng.Intn(n))
		}
	}
	aff := Affiliation(n, groups)
	p := 2 * float64(aff.NumEdges()) / float64(n*(n-1))
	er := ErdosRenyi(n, p, rng)

	ca, ce := meanClustering(aff), meanClustering(er)
	if ca < 2*ce {
		t.Errorf("affiliation clustering %v not clearly above ER %v (density %v)", ca, ce, p)
	}
}
