package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/par"
	"github.com/ebsn/igepa/internal/xrand"
)

// Delta names the parts of the instance a caller mutated since the previous
// solve. The Planner re-derives exactly those parts — weight-cache rows,
// bidder lists, admissible sets and LP columns for the listed users, LP row
// bounds for the listed events — and warm-starts the LP from the previous
// basis. The user and event counts of the instance must not change; model
// departures as a user whose Bids were set to nil and closed events as
// Capacity 0.
type Delta struct {
	// Users whose Bids or Capacity changed (bids arrived, expired, or the
	// user left).
	Users []int
	// Events whose Capacity changed (seats granted elsewhere, capacity
	// raised).
	Events []int
}

// Empty reports whether the delta names nothing.
func (d *Delta) Empty() bool { return len(d.Users) == 0 && len(d.Events) == 0 }

// Planner is the incremental mode of LPPacking: it owns a persistent
// warm-starting LP solver (lp.Solver), the enumeration state behind the
// benchmark LP, and — under the default repair order — the sampled and
// repaired arrangement itself, so a stream of small instance deltas costs
// work proportional to the delta instead of a from-scratch pipeline run.
// The serving stack uses it to keep a live LP bound (and arrangement) while
// bids arrive and capacities shrink.
//
// The caller mutates the instance in place (Users[u].Bids, Users[u].Capacity,
// Events[v].Capacity), then calls Update naming what changed. Derived caches
// (weight rows, bidder lists) are patched in place by the Planner; results
// after an Update are identical to rebuilding a Planner on the mutated
// instance except for LP-degenerate alternate optima (the objective agrees
// to round-off, and every solution certifies against the current LP).
//
// Determinism contract: given the same Options.Seed, Update's incremental
// rounding produces results bit-identical to a full Round() on the same
// planner — Round is retained as the from-scratch oracle and the pinned
// equivalence suite drives both paths against each other. The incremental
// rounding engages when Options.Repair is RepairByIndex (the default; the
// ablation orders fall back to a full re-round per Update).
//
// The Result returned by Update aliases planner-owned state: its
// Arrangement is valid until the next Update call (clone it to keep it),
// mirroring how lp.Solution aliases solver buffers. Round always returns a
// fresh arrangement.
//
// A Planner is not safe for concurrent use. Close releases the solver state
// back to the dimension-keyed arena pool.
type Planner struct {
	in   *model.Instance
	opt  Options
	conf *conflict.Matrix

	sets       [][]admissible.Set
	truncated  []bool
	truncCount int      // maintained incrementally across re-enumerations
	owner      [][2]int // column -> (user, set index), aligned with the LP

	solver *lp.Solver
	sol    *lp.Solution

	inc     *incState // persistent rounding state (nil until first needed)
	lastRes *Result   // most recent Update result (empty-delta short-circuit)

	// scratch reused across Updates so the steady state allocates ~nothing
	changed   []bool   // user membership of the current delta
	users     []int    // sorted, deduplicated delta users
	ownerNext [][2]int // double buffer for the owner rebuild
	rowBuf    []int
	lpd       lp.ProblemDelta

	// set-diff scratch: matching a changed user's old admissible sets to
	// their re-enumerated ones, so surviving sets keep their LP columns (a
	// bid arrival becomes pure column additions — no basis churn, and the
	// solver's fast finish prices only the new columns)
	oldSets  [][]admissible.Set
	oldOff   []int32 // per changed user: offset into matchOld
	newOff   []int32 // per changed user: offset into newDone
	matchOld []int32 // old set index -> new set index, -1 removed
	newDone  []bool  // new set already matched (no column append)

	// colOff/colIdx map (user, set index) -> LP column: colIdx[colOff[u]+si]
	// is set si's column, rebuilt from the owner map after column churn.
	// The incremental sampler reads x through it.
	colOff []int32
	colIdx []int32

	// fullRound forces the pre-incremental path — full cache rebuild, full
	// instance validation, from-scratch re-round per Update. It is the
	// baseline leg of BenchmarkPlannerUpdate and not reachable through
	// Options.
	fullRound bool
}

// NewPlanner builds the pipeline state for the instance, solves the
// benchmark LP cold with a persistent revised-simplex lp.Solver, and returns
// a Planner ready for Update calls.
func NewPlanner(in *model.Instance, opt Options) (*Planner, error) {
	if err := in.Check(); err != nil {
		return nil, err
	}
	if err := opt.resolveAlpha(); err != nil {
		return nil, err
	}
	in.Weights()
	p := &Planner{
		in:        in,
		opt:       opt,
		conf:      conflict.FromFunc(in.NumEvents(), in.Conflicts),
		truncated: make([]bool, in.NumUsers()),
		solver:    lp.NewSolver(opt.lpConfig()),
	}
	if opt.Repair == RepairByIndex {
		// the incremental rounding path re-samples exactly the users whose
		// LP column mass moved between solves
		p.solver.TrackChangedColumns(true)
	}
	workers := par.Workers(opt.Workers)
	p.sets = make([][]admissible.Set, in.NumUsers())
	enumerateInto(in, p.conf, p.sets, p.truncated, nil, opt.MaxSetsPerUser, workers)
	for _, t := range p.truncated {
		if t {
			p.truncCount++
		}
	}
	prob, owner := BuildBenchmarkLP(in, p.sets)
	p.owner = owner
	sol, err := p.solver.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("core: benchmark LP: %w", err)
	}
	p.sol = sol
	return p, nil
}

// Close releases the persistent solver state to the arena pool. The Planner
// must not be used afterwards.
func (p *Planner) Close() {
	if p.solver != nil {
		p.solver.Release()
	}
}

// Stats exposes the underlying solver's warm/cold counters.
func (p *Planner) Stats() lp.SolverStats { return p.solver.Stats() }

// Objective returns the current benchmark-LP optimum — the live upper bound
// on the optimal utility of the current instance when no user's admissible
// sets are truncated (see Result.LPObjective).
func (p *Planner) Objective() float64 { return p.sol.Objective }

// Update re-syncs the Planner with the instance after the caller's mutation
// and returns the rounded result for the updated instance. Every stage is
// delta-scoped: the weight cache and bidder lists are patched for just the
// named users, validation covers just the named users and events, the LP is
// warm re-solved from the previous basis, and the rounding re-samples only
// users whose LP column mass moved — repair and utility maintenance touch
// only the events and attendees those changes reached. An empty delta
// short-circuits to the cached result without re-solving anything.
//
// The returned Result's Arrangement aliases planner state and is valid
// until the next Update; see the type comment.
func (p *Planner) Update(d Delta) (*Result, error) {
	in := p.in
	nu := in.NumUsers()
	for _, u := range d.Users {
		if u < 0 || u >= nu {
			return nil, fmt.Errorf("core: delta names unknown user %d", u)
		}
	}
	for _, v := range d.Events {
		if v < 0 || v >= in.NumEvents() {
			return nil, fmt.Errorf("core: delta names unknown event %d", v)
		}
	}
	if d.Empty() && !p.fullRound {
		return p.cachedResult()
	}

	users := p.sortedUsers(d.Users)
	if p.fullRound {
		if len(users) > 0 {
			// Bids changed: drop the CSR weight cache and bidder lists
			// wholesale (the pre-incremental behavior).
			in.Invalidate()
		}
		if err := in.Check(); err != nil {
			return nil, fmt.Errorf("core: instance invalid after mutation: %w", err)
		}
	} else {
		// Validate before patching: the delta-scoped Invalidate indexes
		// caches by the mutated bids, so bad input must be rejected while
		// the snapshots are still untouched.
		if err := in.CheckUsers(users); err != nil {
			p.lastRes = nil
			return nil, fmt.Errorf("core: instance invalid after mutation: %w", err)
		}
		if err := in.CheckEvents(d.Events); err != nil {
			p.lastRes = nil
			return nil, fmt.Errorf("core: instance invalid after mutation: %w", err)
		}
		if len(users) > 0 {
			in.Invalidate(users...)
		}
	}
	in.Weights()

	p.lpd.SetB = p.lpd.SetB[:0]
	p.lpd.SetC = p.lpd.SetC[:0]
	p.lpd.RemoveCols = p.lpd.RemoveCols[:0]
	p.lpd.AddCols = p.lpd.AddCols[:0]
	p.lpd.AddC = p.lpd.AddC[:0]
	if len(users) > 0 {
		p.oldSets = p.oldSets[:0]
		for _, u := range users {
			p.oldSets = append(p.oldSets, p.sets[u])
		}
		p.reenumerate(users)
		p.rebuildColumns(users, p.oldSets)
	}
	for _, v := range d.Events {
		p.lpd.SetB = append(p.lpd.SetB, lp.BoundChange{Row: nu + v, B: float64(in.Events[v].Capacity)})
	}

	sol, err := p.solver.Resolve(p.lpd)
	if err != nil {
		p.lastRes = nil
		return nil, fmt.Errorf("core: benchmark LP re-solve: %w", err)
	}
	p.sol = sol

	if p.fullRound || p.opt.Repair != RepairByIndex {
		res, err := p.Round()
		if err != nil {
			return nil, err
		}
		p.lastRes = res
		return res, nil
	}
	res := p.updateIncremental(users, d.Events)
	p.lastRes = res
	return res, nil
}

// cachedResult serves an empty delta: nothing changed, so the previous
// result is still the answer — no cache sync, no validation, no LP solve,
// no re-round.
func (p *Planner) cachedResult() (*Result, error) {
	if p.lastRes == nil {
		if p.opt.Repair == RepairByIndex {
			if p.inc == nil {
				p.rebuildInc()
			}
			p.lastRes = p.assembleResult()
		} else {
			res, err := p.Round()
			if err != nil {
				return nil, err
			}
			p.lastRes = res
		}
	}
	return p.lastRes, nil
}

// sortedUsers copies the delta's user list into the planner's scratch,
// sorted and deduplicated.
func (p *Planner) sortedUsers(us []int) []int {
	p.users = append(p.users[:0], us...)
	sort.Ints(p.users)
	p.users = dedupeSorted(p.users)
	return p.users
}

// reenumerate re-derives the changed users' admissible sets, keeping the
// truncated-user count current without rescanning every flag.
func (p *Planner) reenumerate(users []int) {
	for _, u := range users {
		if p.truncated[u] {
			p.truncCount--
		}
	}
	enumerateInto(p.in, p.conf, p.sets, p.truncated, users, p.opt.MaxSetsPerUser, par.Workers(p.opt.Workers))
	for _, u := range users {
		if p.truncated[u] {
			p.truncCount++
		}
	}
}

// matchLimit bounds the per-user O(|old|·|new|) set matching; past it the
// diff degrades to remove-all/add-all (the pre-diff behavior), which is
// still correct — matching only saves work.
const matchLimit = 4096

// setsEqual reports whether two admissible sets are the same LP column:
// identical event lists and bit-identical weight (weights of surviving bids
// re-derive bit-equal from the patched cache, so a set untouched by the
// delta always matches).
func setsEqual(a, b *admissible.Set) bool {
	return a.Weight == b.Weight && slices.Equal(a.Events, b.Events)
}

// rebuildColumns re-syncs the changed users' LP columns with their
// re-enumerated admissible sets — by diff, not wholesale replacement: each
// user's old sets are matched (order-preserving) against the new ones, and
// only vanished sets' columns are removed, only genuinely new sets'
// appended. A pure bid arrival therefore adds columns without touching the
// basis, which is what lets the solver's fast finish price just the delta.
// The surviving columns keep their relative order (lp.ProblemDelta's
// contract) with their owner entries rewritten to the new set indices. All
// delta storage (row lists, the owner double buffer) is planner-owned
// scratch; lp.Solver copies columns on application.
func (p *Planner) rebuildColumns(users []int, oldSets [][]admissible.Set) {
	nu := p.in.NumUsers()
	if cap(p.changed) < nu {
		p.changed = make([]bool, nu)
	} else {
		p.changed = p.changed[:nu]
		for i := range p.changed {
			p.changed[i] = false
		}
	}
	for _, u := range users {
		p.changed[u] = true
	}

	// Per-user offsets into the flat match arenas.
	oldTot, newTot := 0, 0
	p.oldOff = resizeI32(p.oldOff, nu)
	p.newOff = resizeI32(p.newOff, nu)
	for i, u := range users {
		p.oldOff[u] = int32(oldTot)
		oldTot += len(oldSets[i])
		p.newOff[u] = int32(newTot)
		newTot += len(p.sets[u])
	}
	p.matchOld = resizeI32(p.matchOld, oldTot)
	if cap(p.newDone) < newTot {
		p.newDone = make([]bool, newTot)
	}
	p.newDone = p.newDone[:newTot]
	for i := range p.newDone {
		p.newDone[i] = false
	}
	for i, u := range users {
		o, n := oldSets[i], p.sets[u]
		mo := p.matchOld[p.oldOff[u] : int(p.oldOff[u])+len(o)]
		nd := p.newDone[p.newOff[u] : int(p.newOff[u])+len(n)]
		if len(o)*len(n) > matchLimit {
			for k := range mo {
				mo[k] = -1
			}
			continue
		}
		j := 0
		for k := range o {
			mo[k] = -1
			for jj := j; jj < len(n); jj++ {
				if setsEqual(&o[k], &n[jj]) {
					mo[k] = int32(jj)
					nd[jj] = true
					j = jj + 1
					break
				}
			}
		}
	}

	newOwner := p.ownerNext[:0]
	for j, ow := range p.owner {
		u := ow[0]
		if !p.changed[u] {
			newOwner = append(newOwner, ow)
			continue
		}
		if m := p.matchOld[int(p.oldOff[u])+ow[1]]; m >= 0 {
			newOwner = append(newOwner, [2]int{u, int(m)})
		} else {
			p.lpd.RemoveCols = append(p.lpd.RemoveCols, j)
		}
	}

	rows := 0
	for _, u := range users {
		nd := p.newDone[p.newOff[u] : int(p.newOff[u])+len(p.sets[u])]
		for si, s := range p.sets[u] {
			if !nd[si] {
				rows += len(s.Events) + 1
			}
		}
	}
	if cap(p.rowBuf) < rows {
		p.rowBuf = make([]int, 0, rows)
	}
	p.rowBuf = p.rowBuf[:0]
	for _, u := range users {
		nd := p.newDone[p.newOff[u] : int(p.newOff[u])+len(p.sets[u])]
		for si, s := range p.sets[u] {
			if nd[si] {
				continue
			}
			lo := len(p.rowBuf)
			p.rowBuf = append(p.rowBuf, u)
			for _, v := range s.Events {
				p.rowBuf = append(p.rowBuf, nu+v)
			}
			col := p.rowBuf[lo:len(p.rowBuf):len(p.rowBuf)]
			p.lpd.AddCols = append(p.lpd.AddCols, lp.Column{Rows: col})
			p.lpd.AddC = append(p.lpd.AddC, s.Weight)
			newOwner = append(newOwner, [2]int{u, si})
		}
	}
	p.ownerNext = p.owner[:0]
	p.owner = newOwner
}

// buildColMap refreshes the (user, set index) -> column map from the owner
// map.
func (p *Planner) buildColMap() {
	nu := p.in.NumUsers()
	p.colOff = resizeI32(p.colOff, nu+1)
	total := 0
	for u := 0; u < nu; u++ {
		p.colOff[u] = int32(total)
		total += len(p.sets[u])
	}
	p.colOff[nu] = int32(total)
	p.colIdx = resizeI32(p.colIdx, total)
	for j, ow := range p.owner {
		p.colIdx[int(p.colOff[ow[0]])+ow[1]] = int32(j)
	}
}

// resizeI32 returns buf with length n, reusing capacity.
func resizeI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Round samples, repairs and scores an arrangement from the current LP
// solution from scratch — the tail of Algorithm 1 over the incremental
// state. It is deterministic given Options.Seed, so calling it twice
// without an Update in between returns identical results. It never touches
// the maintained incremental rounding state, which is what makes it the
// oracle the equivalence tests pin Update against.
func (p *Planner) Round() (*Result, error) {
	chosen := SampleSets(p.in.NumUsers(), p.sets, p.owner, p.sol.X, p.opt.Alpha, p.opt.Seed, p.opt.Workers)
	return finish(p.in, p.conf, setPicks(p.sets, chosen), p.solver.Problem(), p.sol,
		p.opt, xrand.New(p.opt.Seed), p.truncCount), nil
}

// dedupeSorted compacts consecutive duplicates in a sorted slice.
func dedupeSorted(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// enumerateInto (re-)enumerates admissible sets for the given users (nil
// means every user) on the bounded worker pool, writing each user's sets and
// truncation flag into the caller's slots.
func enumerateInto(in *model.Instance, conf *conflict.Matrix, sets [][]admissible.Set,
	trunc []bool, users []int, maxSets, workers int) {
	wc := in.Weights()
	body := func(u int) {
		usr := &in.Users[u]
		w := func(v int) float64 { return wc.Of(u, v) }
		r := admissible.Enumerate(usr.Bids, usr.Capacity, conf, w, admissible.Config{MaxSetsPerUser: maxSets})
		sets[u] = r.Sets
		trunc[u] = r.Truncated
	}
	if users == nil {
		par.For(workers, in.NumUsers(), 16, body)
		return
	}
	par.For(workers, len(users), 16, func(i int) { body(users[i]) })
}
