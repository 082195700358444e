package admissible

import (
	"slices"

	"github.com/ebsn/igepa/internal/conflict"
)

// Searcher finds the heaviest admissible set of one user without building
// the family: the online planners need only the argmax of Enumerate's
// output, once per arrival. It walks the same DFS as Enumerate — candidates
// by descending weight then event id, include-first — keeps the first strict
// maximum of the running weight, and skips every subtree whose weight cannot
// exceed it. The zero value is ready to use; a Searcher keeps its scratch
// between calls, so a steady-state search allocates nothing. It is not safe
// for concurrent use.
type Searcher struct {
	cands     []candidate // deduplicated bids, heaviest first
	conflicts *conflict.Matrix
	cap       int
	budget    int // nodes the DFS may visit (≤ 0: unlimited)

	cur        []int // events of the set being extended, in DFS order
	best       []int // events of the incumbent
	bestWeight float64
	nodes      int // visited so far
}

type candidate struct {
	event  int
	weight float64
}

// Best returns the user's heaviest admissible set, events ascending, or nil
// when no set has positive weight. Arguments are Enumerate's. The result is
// the Searcher's scratch: it is valid until the next call.
//
// The answer is the first strict maximum, in Enumerate's order, of the sets'
// weights summed heaviest event first. That is the set a scan of
// Enumerate(...).Sets for the first strict maximum of Set.Weight names,
// unless two sets weigh the same to within rounding: Enumerate keeps one
// running sum that it decrements on backtrack, so its Set.Weight carries an
// ulp or so of drift from every node visited before, which a search that
// skips nodes cannot reproduce. Here a set's weight depends on the set alone.
//
// cfg.MaxSetsPerUser keeps its meaning as the adversarial guard rail: a
// budget on DFS nodes visited, where Enumerate visits one node per emitted
// set. Pruned subtrees cost nothing, so a truncated search has covered at
// least the nodes a truncated enumeration emits, and the heaviest singleton
// is the first node: the truncated answer is never lighter than the
// truncated enumeration's.
func (s *Searcher) Best(bids []int, cap int, conflicts *conflict.Matrix, weight func(v int) float64, cfg Config) []int {
	if cap <= 0 || len(bids) == 0 {
		return nil
	}
	s.budget = cfg.MaxSetsPerUser
	if s.budget == 0 {
		s.budget = DefaultMaxSetsPerUser
	}

	s.cands = orderCandidates(s.cands, bids, weight)
	s.conflicts, s.cap = conflicts, cap
	s.cur = s.cur[:0]
	s.best, s.bestWeight = s.best[:0], 0
	s.nodes = 0
	s.dfs(0, 0)

	if len(s.best) == 0 {
		return nil
	}
	slices.Sort(s.best)
	return s.best
}

// dfs extends the current set, which weighs weight, with candidates from
// index i onward.
func (s *Searcher) dfs(i int, weight float64) {
	room := s.cap - len(s.cur)
	for ; i < len(s.cands); i++ {
		// No set in candidate i's subtree outweighs the current set plus the
		// next room candidates (those of positive weight: an interest
		// function may score below zero), and adding them in the DFS's own
		// order makes that hold for the rounded sums too: a heavier addend
		// never rounds to a lighter sum. Candidates are sorted, so later
		// siblings are bounded by less: the first failure ends the level.
		bound := weight
		for _, c := range s.cands[i:min(i+room, len(s.cands))] {
			if c.weight <= 0 {
				break
			}
			bound += c.weight
		}
		if bound <= s.bestWeight {
			return
		}
		c := s.cands[i]
		if s.blocked(c.event) {
			continue
		}
		s.cur = append(s.cur, c.event)
		with := weight + c.weight
		if with > s.bestWeight {
			s.bestWeight = with
			s.best = append(s.best[:0], s.cur...)
		}
		s.nodes++
		if room > 1 && !s.spent() {
			s.dfs(i+1, with)
		}
		s.cur = s.cur[:len(s.cur)-1]
		if s.spent() {
			return
		}
	}
}

// spent reports whether the node budget is used up.
func (s *Searcher) spent() bool { return s.budget > 0 && s.nodes >= s.budget }

// blocked reports whether v conflicts with an event of the current set.
func (s *Searcher) blocked(v int) bool {
	for _, w := range s.cur {
		if s.conflicts.Conflicts(v, w) {
			return true
		}
	}
	return false
}
