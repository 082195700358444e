// Package conflict implements conflict predicates σ(lv, lv') between events
// (Definition 3) and the conflict-graph utilities the rest of the system
// builds on: an explicit symmetric matrix with bitset rows (the hot path of
// admissible-set enumeration), time-interval overlap, random conflict
// generation with probability pcf, and greedy clique grouping (used by the
// synthetic bid generator to model users bidding inside groups of mutually
// conflicting events).
package conflict

import (
	"github.com/ebsn/igepa/internal/bitset"
	"github.com/ebsn/igepa/internal/xrand"
)

// Matrix is an explicit symmetric conflict relation over n events, stored as
// one bitset row per event. An event never conflicts with itself.
type Matrix struct {
	rows []*bitset.Set
	n    int
}

// NewMatrix returns an empty (conflict-free) relation over n events.
func NewMatrix(n int) *Matrix {
	rows := make([]*bitset.Set, n)
	for i := range rows {
		rows[i] = bitset.New(n)
	}
	return &Matrix{rows: rows, n: n}
}

// Len returns the number of events n.
func (m *Matrix) Len() int { return m.n }

// Add marks events v and w as conflicting. Adding (v,v) is ignored.
func (m *Matrix) Add(v, w int) {
	if v == w {
		return
	}
	m.rows[v].Add(w)
	m.rows[w].Add(v)
}

// Conflicts reports whether v and w conflict. It has the signature of
// model.ConflictFunc.
func (m *Matrix) Conflicts(v, w int) bool {
	if v == w {
		return false
	}
	return m.rows[v].Contains(w)
}

// Row returns the bitset of events conflicting with v. The returned set is
// shared; callers must not modify it.
func (m *Matrix) Row(v int) *bitset.Set { return m.rows[v] }

// Pairs returns all unordered conflicting pairs (v < w), ordered
// lexicographically. Used by the JSON codec to serialize any conflict
// function explicitly.
func (m *Matrix) Pairs() [][2]int {
	var ps [][2]int
	for v := 0; v < m.n; v++ {
		m.rows[v].ForEach(func(w int) {
			if w > v {
				ps = append(ps, [2]int{v, w})
			}
		})
	}
	return ps
}

// FromFunc materializes any symmetric conflict predicate over n events into
// a Matrix by evaluating it on all unordered pairs.
func FromFunc(n int, f func(v, w int) bool) *Matrix {
	m := NewMatrix(n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if f(v, w) {
				m.Add(v, w)
			}
		}
	}
	return m
}

// FromPairs builds a Matrix over n events from an explicit pair list.
func FromPairs(n int, pairs [][2]int) *Matrix {
	m := NewMatrix(n)
	for _, p := range pairs {
		m.Add(p[0], p[1])
	}
	return m
}

// Random returns a conflict matrix where each unordered pair conflicts
// independently with probability pcf, the synthetic-dataset model of
// Table I.
func Random(n int, pcf float64, rng *xrand.RNG) *Matrix {
	m := NewMatrix(n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if rng.Bool(pcf) {
				m.Add(v, w)
			}
		}
	}
	return m
}

// FromIntervals builds the time-overlap conflict relation used by the
// Meetup-like dataset: events v and w conflict iff their half-open time
// intervals [start, end) overlap. Slices must have equal length.
func FromIntervals(start, end []int64) *Matrix {
	if len(start) != len(end) {
		panic("conflict: start/end length mismatch")
	}
	n := len(start)
	m := NewMatrix(n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if start[v] < end[w] && start[w] < end[v] {
				m.Add(v, w)
			}
		}
	}
	return m
}

// Groups partitions events into greedy conflict cliques: events are scanned
// in index order and each joins the first existing group it conflicts with
// entirely (every member), otherwise it starts a new group. The result is a
// partition of 0..n-1 into groups of pairwise-conflicting events.
//
// The synthetic bid generator draws each user's bids from a few such groups,
// reproducing the paper's observation that "users tend to bid a group of
// similar and often conflicting events".
func (m *Matrix) Groups() [][]int {
	var groups [][]int
next:
	for v := 0; v < m.n; v++ {
		for gi, g := range groups {
			all := true
			for _, w := range g {
				if !m.Conflicts(v, w) {
					all = false
					break
				}
			}
			if all {
				groups[gi] = append(groups[gi], v)
				continue next
			}
		}
		groups = append(groups, []int{v})
	}
	return groups
}
