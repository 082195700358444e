// Package admissible enumerates admissible event sets (paper §III): for a
// user u with bid set Nu and capacity cu, the admissible sets Au are all
// nonempty S ⊆ Nu with |S| ≤ cu whose events are pairwise non-conflicting.
// These sets are the variables of the benchmark LP, so the enumeration order
// and the truncation policy directly shape the LP the solver sees.
//
// Note on the paper text: §III literally defines admissible sets with
// σ(lv,lv') = 1 for members; that is a typo for σ = 0 (conflict-free), the
// only reading consistent with the conflict constraint of Definition 4. See
// DESIGN.md.
package admissible

import (
	"cmp"
	"slices"

	"github.com/ebsn/igepa/internal/bitset"
	"github.com/ebsn/igepa/internal/conflict"
)

// Set is one admissible event set S with its weight w(u,S) = Σ_{v∈S} w(u,v).
type Set struct {
	Events []int // sorted ascending
	Weight float64
}

// Config controls enumeration.
type Config struct {
	// MaxSetsPerUser truncates the enumeration after this many sets
	// (0 means DefaultMaxSetsPerUser; negative means unlimited). Candidates
	// are explored heaviest-first, so truncation keeps weight-dense sets;
	// all singletons are always retained. Truncation is reported to the
	// caller via Result.Truncated, never silent.
	MaxSetsPerUser int
}

// DefaultMaxSetsPerUser bounds the per-user LP column count. The paper
// assumes "a user will not bid for too many events, so the number of
// admissible event sets will be reasonable", but the cap does bite on the
// paper-scale workload: plan_wide's Meetup instance truncates 83 of its
// 2,811 users, and those 83 own 1,661,200 of the LP's 3,570,714 columns.
// An LP built from truncated families is a restriction of the benchmark LP,
// so its optimum bounds the integral optimum only when no user truncates.
const DefaultMaxSetsPerUser = 20000

// Result is the enumeration outcome for one user.
type Result struct {
	Sets      []Set
	Truncated bool // true if MaxSetsPerUser cut the enumeration short
}

// Enumerate returns the admissible sets for one user.
//
// bids must be the user's bid set (duplicates ignored); cap is cu; conflicts
// is the event-conflict matrix; weight(v) returns w(u,v) ≥ 0 for this user.
// Enumeration is exhaustive DFS over bids ordered by descending weight, so
// when the cap bites, the retained sets are the heavy ones. It is a Walker
// whose sink copies every set out.
func Enumerate(bids []int, cap int, conflicts *conflict.Matrix, weight func(v int) float64, cfg Config) Result {
	var w Walker
	var sets []Set
	truncated := w.Walk(bids, cap, conflicts, weight, cfg, func(events []int, weight float64) {
		sets = append(sets, Set{Events: append([]int(nil), events...), Weight: weight})
	})
	return Result{Sets: sets, Truncated: truncated}
}

// Walker is the enumeration DFS with a sink: it hands each admissible set
// to a callback instead of storing it, so a caller that needs a set only
// once (the LP build writes it straight into a column) keeps no copy. The
// zero value is ready to use; a Walker keeps its scratch between walks, so
// a steady-state walk allocates nothing. It is not safe for concurrent use.
type Walker struct {
	cands     []candidate // deduplicated bids, heaviest first
	cap       int
	conflicts *conflict.Matrix
	maxSets   int
	emit      func(events []int, weight float64)

	set       []int // events of the current set, ascending
	curWeight float64
	blocked   *bitset.Set // events conflicting with anything in set
	blockedBy []int       // stack of blocked events, unwound on backtrack
	sets      int         // sets emitted
	singles   int         // singletons emitted, a prefix of cands
	truncated bool
}

// Walk enumerates the user's admissible sets, in Enumerate's order, and
// calls emit once per set. Arguments are Enumerate's. events is ascending
// and is the Walker's scratch, valid only during the call; weight is
// w(u,S) exactly as Enumerate's Set.Weight. Walk reports whether
// cfg.MaxSetsPerUser cut the enumeration short.
func (w *Walker) Walk(bids []int, cap int, conflicts *conflict.Matrix, weight func(v int) float64, cfg Config, emit func(events []int, weight float64)) bool {
	w.maxSets = cfg.MaxSetsPerUser
	if w.maxSets == 0 {
		w.maxSets = DefaultMaxSetsPerUser
	}
	if cap <= 0 || len(bids) == 0 {
		return false
	}

	w.cands = orderCandidates(w.cands, bids, weight)
	if w.blocked == nil || w.blocked.Len() != conflicts.Len() {
		w.blocked = bitset.New(conflicts.Len())
	}
	w.cap, w.conflicts, w.emit = cap, conflicts, emit
	w.set, w.curWeight = slices.Grow(w.set[:0], min(cap, len(w.cands))), 0
	w.sets, w.singles, w.truncated = 0, 0, false
	w.dfs(0, 0)

	// Guarantee all singletons survive truncation: they are the fallback
	// mass the rounding step needs for every biddable event. At depth 0
	// nothing is blocked, so the DFS emitted the singletons of a prefix of
	// the candidates; the rest follow in candidate order.
	if w.truncated {
		for _, c := range w.cands[w.singles:] {
			w.set = append(w.set[:0], c.event)
			emit(w.set, c.weight)
		}
	}
	w.emit, w.conflicts = nil, nil
	return w.truncated
}

// orderCandidates writes the deduplicated bids into dst[:0] in enumeration
// order: descending weight, ties by ascending event id, so the enumeration
// (and therefore the LP column order) is deterministic. Duplicates carry
// equal weights, so they end up adjacent.
func orderCandidates(dst []candidate, bids []int, weight func(v int) float64) []candidate {
	dst = slices.Grow(dst[:0], len(bids))
	for _, v := range bids {
		dst = append(dst, candidate{v, weight(v)})
	}
	slices.SortFunc(dst, func(a, b candidate) int {
		if a.weight != b.weight {
			return cmp.Compare(b.weight, a.weight)
		}
		return cmp.Compare(a.event, b.event)
	})
	return slices.CompactFunc(dst, func(a, b candidate) bool { return a.event == b.event })
}

// dfs extends the current set with candidates from index i onward.
// include-first order emits heavy supersets before exploring alternatives.
func (w *Walker) dfs(i int, depth int) {
	if w.truncated {
		return
	}
	for ; i < len(w.cands); i++ {
		c := w.cands[i]
		if w.blocked.Contains(c.event) {
			continue
		}
		at := w.insert(c.event)
		w.curWeight += c.weight
		w.emit(w.set, w.curWeight)
		w.sets++
		if depth == 0 {
			w.singles++
		}
		if w.maxSets > 0 && w.sets >= w.maxSets {
			w.truncated = true
		}
		if depth+1 < w.cap && !w.truncated {
			// block v's conflict row for the deeper levels
			mark := len(w.blockedBy)
			w.blockRow(w.conflicts.Row(c.event))
			w.dfs(i+1, depth+1)
			w.unblock(mark)
		}
		w.curWeight -= c.weight
		w.set = slices.Delete(w.set, at, at+1)
		if w.truncated {
			return
		}
	}
}

// insert adds v to the ascending current set and returns its position.
func (w *Walker) insert(v int) int {
	at := len(w.set)
	for at > 0 && w.set[at-1] > v {
		at--
	}
	w.set = slices.Insert(w.set, at, v)
	return at
}

// blockRow marks all events in row as blocked, pushing the newly blocked
// ones onto the shared backtrack stack (one reusable slice for the whole
// enumeration instead of one allocation per DFS node).
func (w *Walker) blockRow(row *bitset.Set) {
	row.ForEach(func(v int) {
		if !w.blocked.Contains(v) {
			w.blocked.Add(v)
			w.blockedBy = append(w.blockedBy, v)
		}
	})
}

// unblock unwinds the backtrack stack to mark.
func (w *Walker) unblock(mark int) {
	for _, v := range w.blockedBy[mark:] {
		w.blocked.Remove(v)
	}
	w.blockedBy = w.blockedBy[:mark]
}
