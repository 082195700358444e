// Package social implements the social-network substrate: a compact
// undirected graph with bitset adjacency and the generators used by the
// experiments (Erdős–Rényi per Table I, group-affiliation graphs for the
// Meetup-like dataset). The workloads copy each user's degree into the
// instance, where model.Instance.DPI turns it into the degree of potential
// interaction D(G,u) (Definition 6).
package social

import (
	"math"

	"github.com/ebsn/igepa/internal/bitset"
	"github.com/ebsn/igepa/internal/xrand"
)

// Graph is a simple undirected graph on n vertices with bitset adjacency
// rows. Self-loops are ignored.
type Graph struct {
	adj    []*bitset.Set
	degree []int
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	adj := make([]*bitset.Set, n)
	for i := range adj {
		adj[i] = bitset.New(n)
	}
	return &Graph{adj: adj, degree: make([]int, n)}
}

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicate edges
// are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || g.adj[u].Contains(v) {
		return
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
	g.degree[u]++
	g.degree[v]++
}

// Degree returns deg(u).
func (g *Graph) Degree(u int) int { return g.degree[u] }

// ErdosRenyi samples G(n, p): every unordered pair is an edge independently
// with probability p. This is the synthetic social network of Table I
// (pdeg). For sparse p it uses geometric skipping over the pair sequence, so
// generation is O(n + |E|) rather than O(n²); for dense p it falls back to
// per-pair coin flips.
func ErdosRenyi(n int, p float64, rng *xrand.RNG) *Graph {
	g := NewGraph(n)
	if p <= 0 || n < 2 {
		return g
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		return g
	}
	if p < 0.1 {
		// Geometric skipping (Batagelj–Brandes): walk the linearized pair
		// index, jumping ahead by Geometric(p) each time.
		logq := math.Log1p(-p)
		idx := int64(-1)
		total := int64(n) * int64(n-1) / 2
		for {
			u := rng.Float64()
			skip := int64(math.Log1p(-u)/logq) + 1
			idx += skip
			if idx >= total {
				return g
			}
			a, b := pairFromIndex(idx, n)
			g.AddEdge(a, b)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(p) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// pairFromIndex maps a linear index in [0, n(n-1)/2) to the unordered pair
// (a,b), a<b, enumerated row by row: (0,1),(0,2),...,(0,n-1),(1,2),...
func pairFromIndex(idx int64, n int) (int, int) {
	a := 0
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		a++
		rowLen--
	}
	return a, a + 1 + int(idx)
}

// Affiliation builds the group-membership graph used by the Meetup-like
// dataset: vertices u and v are adjacent iff they share at least one group
// (the paper: "if two users join at least one common group, they have an
// edge"). groups lists member vertices per group.
func Affiliation(n int, groups [][]int) *Graph {
	g := NewGraph(n)
	for _, members := range groups {
		for i, u := range members {
			for _, v := range members[i+1:] {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}
