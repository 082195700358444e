// Incremental rounding: the delta-scoped tail of Algorithm 1.
//
// The full rounding (finish in lppacking.go) is three passes over the whole
// instance: sample one admissible set per user from the LP optimum, repair
// capacity overflows by a sequential scan, and score the arrangement from
// scratch. All three decompose:
//
//   - Sampling is a pure per-user function of (seed, u, the user's LP column
//     values): user u draws from the dedicated stream xrand.NewStream(seed,u)
//     over probabilities α·x*_{u,S}. If none of u's column values moved
//     between solves, u's draw cannot change — so only users in the solver's
//     changed-column set (plus the delta's own users, whose columns were
//     replaced wholesale) are re-drawn.
//
//   - The index-order repair decomposes per event: with load starting at the
//     sampled count and decrementing on every drop, exactly the first
//     max(0, |samplers(v)| − c_v) samplers of v in user order drop it and the
//     rest keep it, independent of every other event. Maintaining the sorted
//     sampler list per event therefore localizes repair to the events whose
//     sampler set or capacity changed, at O(attendees) per dirty event.
//
//   - Utility maintenance is model.UtilityAccumulator: per-user subtotals
//     re-derived only for users whose assignment (or weights) changed, with
//     a block-summation tree that keeps the total bit-equal to a from-
//     scratch model.Utility.
//
// Together an Update touches O(|Δ| + moved columns + dirty attendees) state
// where the full re-round touches O(|U| + |pairs|), while remaining
// bit-identical to Planner.Round by construction. The equivalence is pinned
// by TestPlannerUpdateMatchesFullRound and FuzzIncrementalRound.
package core

import (
	"slices"
	"sort"

	"github.com/ebsn/igepa/internal/model"
)

// incState is the Planner's persistent rounding state: the current draws,
// the per-event sampler lists the repair decomposition runs on, the
// maintained post-repair arrangement and its utility accumulator, plus all
// the scratch the delta walk reuses.
type incState struct {
	sampled   [][]int            // per user: events of the sampled set, if any
	samplers  [][]int            // per event: users sampling it, ascending
	droppedOf []int              // per event: pairs currently dropped by repair
	arr       *model.Arrangement // maintained post-repair arrangement (owned)
	acc       *model.UtilityAccumulator

	sampledPairs int
	dropped      int

	res Result // assembled in place; Update returns &res

	// scratch
	ev       []int // events of a re-drawn user's new set
	drawn    []int // per re-drawn user: its new column, or -1
	resample []int
	userMark []bool
	dirtyEv  []int
	evMark   []bool
	accDirty []int
	accMark  []bool
}

// ensure sizes the state for nu users and nv events.
func (st *incState) ensure(nu, nv int) {
	if len(st.sampled) != nu {
		st.sampled = make([][]int, nu)
		st.userMark = make([]bool, nu)
		st.accMark = make([]bool, nu)
	}
	if len(st.samplers) != nv {
		st.samplers = make([][]int, nv)
		st.droppedOf = make([]int, nv)
		st.evMark = make([]bool, nv)
	}
}

// rebuildInc derives the full rounding state from the current LP solution —
// the from-scratch path used at first need and whenever the solver could
// not attribute the change (cold solves, warm-start fallbacks). It is the
// same computation as Round up to the repair's event decomposition, so the
// state it leaves behind matches what the maintained path would have
// reached.
func (p *Planner) rebuildInc() {
	nu, nv := p.in.NumUsers(), p.in.NumEvents()
	if p.inc == nil {
		p.inc = &incState{}
	}
	st := p.inc
	st.ensure(nu, nv)
	prob := p.solver.Problem()
	drawn := p.drawAll()

	st.sampledPairs = 0
	for v := 0; v < nv; v++ {
		st.samplers[v] = st.samplers[v][:0]
	}
	for u := 0; u < nu; u++ {
		ev := st.sampled[u][:0]
		if j := drawn[u]; j >= 0 {
			ev = appendEvents(ev, prob, j, nu)
		}
		st.sampled[u] = ev
		st.sampledPairs += len(ev)
		for _, v := range ev {
			st.samplers[v] = append(st.samplers[v], u) // u ascending: sorted
		}
	}

	if st.arr == nil {
		st.arr = model.NewArrangement(nu)
	}
	for u := range st.arr.Sets {
		st.arr.Sets[u] = st.arr.Sets[u][:0]
	}
	st.dropped = 0
	for v := 0; v < nv; v++ {
		k := len(st.samplers[v]) - p.in.Events[v].Capacity
		if k < 0 {
			k = 0
		}
		st.droppedOf[v] = k
		st.dropped += k
		for _, u := range st.samplers[v][k:] {
			st.arr.Sets[u] = append(st.arr.Sets[u], v) // v ascending: sorted
		}
	}
	st.acc = model.NewUtilityAccumulator(p.in, st.arr)

	st.dirtyEv = st.dirtyEv[:0]
	st.accDirty = st.accDirty[:0]
	for i := range st.evMark {
		st.evMark[i] = false
	}
	for i := range st.userMark {
		st.userMark[i] = false
	}
	for i := range st.accMark {
		st.accMark[i] = false
	}
}

// updateIncremental advances the maintained rounding state across one
// Update: re-draw the users whose column mass moved, re-repair the events
// their moves (or the delta's capacity changes) touched, re-score the
// attendees those repairs reached. users and events are the (sorted,
// validated) delta lists.
func (p *Planner) updateIncremental(users, events []int) *Result {
	cols, all := p.solver.ChangedColumns()
	if p.inc == nil || all {
		p.rebuildInc()
		return p.assembleResult()
	}
	st, prob, nu := p.inc, p.solver.Problem(), p.in.NumUsers()

	// Users to re-draw: owners of moved columns plus the delta users (their
	// columns were replaced; a user left without columns must still re-draw
	// to the empty choice).
	st.resample = st.resample[:0]
	for _, j := range cols {
		if u := int(prob.Col(j)[0]); !st.userMark[u] {
			st.userMark[u] = true
			st.resample = append(st.resample, u)
		}
	}
	for _, u := range users {
		if !st.userMark[u] {
			st.userMark[u] = true
			st.resample = append(st.resample, u)
		}
	}
	sort.Ints(st.resample)

	// Draw the new choices with Round's kernel, so each re-drawn user gets
	// the draw a full Round would give it.
	st.drawn = slices.Grow(st.drawn[:0], len(st.resample))[:len(st.resample)]
	drawColumns(p.cols, p.sol.X, st.resample, st.drawn, p.opt.Alpha, p.opt.Seed, p.opt.Workers)

	// Apply the draw diffs to the sampler lists, dirtying touched events.
	st.dirtyEv = st.dirtyEv[:0]
	for i, u := range st.resample {
		st.userMark[u] = false
		ev := st.ev[:0]
		if j := st.drawn[i]; j >= 0 {
			ev = appendEvents(ev, prob, j, nu)
		}
		st.ev = ev
		if slices.Equal(st.sampled[u], ev) {
			continue
		}
		for _, v := range st.sampled[u] {
			if !model.Contains(ev, v) {
				st.removeSampler(v, u)
				if st.arrRemove(u, v) {
					st.markAccDirty(u)
				}
				st.markDirty(v)
			}
		}
		for _, v := range ev {
			if !model.Contains(st.sampled[u], v) {
				st.insertSampler(v, u)
				st.markDirty(v)
			}
		}
		st.sampledPairs += len(ev) - len(st.sampled[u])
		st.sampled[u] = append(st.sampled[u][:0], ev...)
	}
	for _, v := range events {
		st.markDirty(v)
	}
	// Delta users' weight rows may have been re-derived even where the
	// assignment stands; their subtotals must re-read the patched cache.
	for _, u := range users {
		st.markAccDirty(u)
	}

	// Localized repair: re-cut each dirty event's keep boundary.
	sort.Ints(st.dirtyEv)
	for _, v := range st.dirtyEv {
		st.evMark[v] = false
		s := st.samplers[v]
		k := len(s) - p.in.Events[v].Capacity
		if k < 0 {
			k = 0
		}
		st.dropped += k - st.droppedOf[v]
		st.droppedOf[v] = k
		for idx, u := range s {
			keep := idx >= k
			if keep != model.Contains(st.arr.Sets[u], v) {
				if keep {
					st.arrInsert(u, v)
				} else {
					st.arrRemove(u, v)
				}
				st.markAccDirty(u)
			}
		}
	}

	// Utility refresh over exactly the touched users.
	for _, u := range st.accDirty {
		st.accMark[u] = false
		st.acc.SetUser(u, st.arr.Sets[u])
	}
	st.accDirty = st.accDirty[:0]
	return p.assembleResult()
}

// assembleResult writes the maintained state into the planner-owned Result.
// With GreedyFill enabled the fill runs from scratch on a clone of the
// maintained post-repair arrangement — the fill is a global greedy over
// candidate weights, so it does not localize, but it starts from the
// incrementally maintained state and stays bit-identical to the full path.
func (p *Planner) assembleResult() *Result {
	st := p.inc
	st.res = Result{
		Arrangement:    st.arr,
		Utility:        st.acc.Total(),
		LPObjective:    p.sol.Objective,
		LPIterations:   p.sol.Iterations,
		LPColumns:      p.solver.LiveColumns(),
		TruncatedUsers: p.truncCount,
		SampledPairs:   st.sampledPairs,
		RepairDropped:  st.dropped,
	}
	if p.opt.GreedyFill {
		filled := st.arr.Clone()
		st.res.FilledPairs = greedyFill(p.in, p.conf, filled)
		filled.Normalize()
		st.res.Arrangement = filled
		st.res.Utility = model.Utility(p.in, filled)
	}
	return &st.res
}

// markDirty queues event v for the repair pass.
func (st *incState) markDirty(v int) {
	if !st.evMark[v] {
		st.evMark[v] = true
		st.dirtyEv = append(st.dirtyEv, v)
	}
}

// markAccDirty queues user u for the utility refresh.
func (st *incState) markAccDirty(u int) {
	if !st.accMark[u] {
		st.accMark[u] = true
		st.accDirty = append(st.accDirty, u)
	}
}

// insertSampler adds user u to event v's sorted sampler list.
func (st *incState) insertSampler(v, u int) {
	s := st.samplers[v]
	st.samplers[v] = slices.Insert(s, sort.SearchInts(s, u), u)
}

// removeSampler deletes user u from event v's sorted sampler list.
func (st *incState) removeSampler(v, u int) {
	s := st.samplers[v]
	if i := sort.SearchInts(s, u); i < len(s) && s[i] == u {
		st.samplers[v] = slices.Delete(s, i, i+1)
	}
}

// arrInsert adds event v to user u's sorted assignment.
func (st *incState) arrInsert(u, v int) {
	s := st.arr.Sets[u]
	st.arr.Sets[u] = slices.Insert(s, sort.SearchInts(s, v), v)
}

// arrRemove deletes event v from user u's assignment, reporting whether it
// was present.
func (st *incState) arrRemove(u, v int) bool {
	s := st.arr.Sets[u]
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return false
	}
	st.arr.Sets[u] = slices.Delete(s, i, i+1)
	return true
}
