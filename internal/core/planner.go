package core

import (
	"fmt"
	"slices"

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

// Planner runs Algorithm 1 and keeps it live: it owns a persistent
// warm-starting LP solver (lp.Solver) holding the benchmark LP, each user's
// list of LP columns, and — under the default repair order — the sampled and
// repaired arrangement itself, so a stream of small instance deltas costs
// work proportional to the delta instead of a from-scratch pipeline run.
// LPPacking is a Planner's first Round. The serving stack uses it to keep a
// live LP bound (and arrangement) while bids arrive and capacities shrink.
//
// An LP column is its admissible set, so the Planner stores no set: user
// u's k-th admissible set is slot cols[u][k] of the solver's problem, whose
// first row is u's, whose other rows are the set's events offset by |U|,
// and whose cost is the set's weight. Slots are stable (lp.Solver): a
// column keeps its slot until a compaction renumbers them all, so an Update
// rewrites only its delta users' lists.
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

	cols       [][]int32 // per user: its LP column slots, in set order
	truncated  []bool
	truncCount int // maintained incrementally across re-enumerations

	solver *lp.Solver
	sol    *lp.Solution

	inc     *incState // persistent rounding state (nil until first needed)
	lastRes *Result   // most recent Update result (empty-delta short-circuit)

	// scratch reused across Updates so the steady state allocates ~nothing
	users  []int   // sorted, deduplicated delta users
	walked setBuf  // a changed user's re-enumerated sets
	newCol []int32 // the changed user's new column list
	rowBuf []int
	lpd    lp.ProblemDelta
}

// NewPlanner builds the benchmark LP straight from the admissible-set
// enumeration, solves it cold with a persistent revised-simplex lp.Solver,
// and returns a Planner ready for Update calls.
func NewPlanner(in *model.Instance, opt Options) (*Planner, error) {
	if err := in.Check(); err != nil {
		return nil, err
	}
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	in.Weights()
	p := &Planner{
		in:     in,
		opt:    opt,
		conf:   conflict.FromFunc(in.NumEvents(), in.Conflicts),
		solver: lp.NewSolver(opt.lpConfig()),
	}
	prob, colStart, truncated := enumerateLP(in, p.conf, opt.MaxSetsPerUser, par.Workers(opt.Workers))
	p.truncated, p.truncCount = truncated, countTrue(truncated)
	p.cols = columnLists(colStart)
	sol, err := p.solver.Solve(prob)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("core: benchmark LP: %w", err)
	}
	p.sol = sol
	return p, nil
}

// columnLists turns enumerateLP's column ranges into per-user column lists:
// user u's list is [colStart[u], colStart[u+1]), capped so that an append
// to one list never writes into the next.
func columnLists(colStart []int) [][]int32 {
	nu := len(colStart) - 1
	flat := make([]int32, colStart[nu])
	for j := range flat {
		flat[j] = int32(j)
	}
	cols := make([][]int32, nu)
	for u := range cols {
		cols[u] = flat[colStart[u]:colStart[u+1]:colStart[u+1]]
	}
	return cols
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
// sets are truncated. It is the optimum of the LP with its right-hand sides
// raised by at most 2·10⁻⁷·(1+b), so it can exceed the unperturbed optimum
// by about 3·10⁻⁷ relative (see Result.LPObjective).
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
	if d.Empty() {
		return p.cachedResult()
	}

	users := p.sortedUsers(d.Users)
	// Validate before patching: the delta-scoped Invalidate indexes caches
	// by the mutated bids, so bad input must be rejected while the snapshots
	// are still untouched.
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
	in.Weights()

	p.lpd.SetB = p.lpd.SetB[:0]
	p.lpd.SetC = p.lpd.SetC[:0]
	p.lpd.RemoveCols = p.lpd.RemoveCols[:0]
	p.lpd.AddCols = p.lpd.AddCols[:0]
	p.lpd.AddC = p.lpd.AddC[:0]
	if len(users) > 0 {
		p.rebuildColumns(users)
	}
	for _, v := range d.Events {
		p.lpd.SetB = append(p.lpd.SetB, lp.BoundChange{Row: nu + v, B: float64(in.Events[v].Capacity)})
	}

	sol, err := p.solver.Resolve(p.lpd)
	if r := p.solver.Renumbering(); r != nil {
		for _, cs := range p.cols {
			for k, j := range cs {
				cs[k] = r[j]
			}
		}
	}
	if err != nil {
		p.lastRes = nil
		return nil, fmt.Errorf("core: benchmark LP re-solve: %w", err)
	}
	p.sol = sol

	if p.opt.Repair != RepairByIndex {
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
	slices.Sort(p.users)
	p.users = slices.Compact(p.users)
	return p.users
}

// matchLimit bounds the per-user O(|old|·|new|) set matching; past it the
// diff degrades to remove-all/add-all (the pre-diff behavior), which is
// still correct — matching only saves work.
const matchLimit = 4096

// setBuf holds one user's re-enumerated admissible sets: set k has events
// ev[off[k]:off[k+1]] and weight w[k].
type setBuf struct {
	ev  []int
	off []int
	w   []float64
}

func (b *setBuf) emit(events []int, weight float64) {
	b.ev = append(b.ev, events...)
	b.off = append(b.off, len(b.ev))
	b.w = append(b.w, weight)
}

// rebuildColumns re-enumerates the changed users and re-syncs their LP
// columns by diff, not wholesale replacement: each user's old columns,
// read back from the LP, are matched (order-preserving) against the new
// sets, and only vanished sets' columns are removed, only genuinely new
// sets' appended. A pure bid arrival therefore adds columns without
// touching the basis, which is what lets the solver's fast finish price
// just the delta. It fills the delta's RemoveCols and AddCols (user then set
// order) and rewrites the changed users' lists in post-delta slots:
// surviving columns keep theirs, and the a-th added column takes slot
// NumCols() + a (lp.ProblemDelta's contract). Every other list is left
// alone. lp.Solver copies added columns on application, so their row lists
// are planner scratch.
func (p *Planner) rebuildColumns(users []int) {
	in, prob := p.in, p.solver.Problem()
	nu := in.NumUsers()
	wc := in.Weights()
	cfg := admissible.Config{MaxSetsPerUser: p.opt.MaxSetsPerUser}
	wk := walkers.Get().(*admissible.Walker)
	defer walkers.Put(wk)
	b := &p.walked
	emit := b.emit
	p.rowBuf = p.rowBuf[:0]
	for _, u := range users {
		b.ev, b.off, b.w = b.ev[:0], append(b.off[:0], 0), b.w[:0]
		usr := &in.Users[u]
		if p.truncated[u] {
			p.truncCount--
		}
		p.truncated[u] = wk.Walk(usr.Bids, usr.Capacity, p.conf, func(v int) float64 { return wc.Of(u, v) }, cfg, emit)
		if p.truncated[u] {
			p.truncCount++
		}

		// Match each old column to the first equal new set past the
		// previous match; newCol[k] is set k's surviving column, or -1.
		old, n := p.cols[u], len(b.w)
		p.newCol = slices.Grow(p.newCol[:0], n)[:n]
		for k := range p.newCol {
			p.newCol[k] = -1
		}
		next, match := 0, len(old)*n <= matchLimit
		for _, j := range old {
			matched := false
			for k := next; match && k < n; k++ {
				if b.isColumn(prob, int(j), k, nu) {
					p.newCol[k], next, matched = j, k+1, true
					break
				}
			}
			if !matched {
				p.lpd.RemoveCols = append(p.lpd.RemoveCols, int(j))
			}
		}
		// New sets become appended columns.
		for k, j := range p.newCol {
			if j >= 0 {
				continue
			}
			p.newCol[k] = int32(prob.NumCols() + len(p.lpd.AddCols))
			lo := len(p.rowBuf)
			p.rowBuf = append(p.rowBuf, u)
			for _, v := range b.ev[b.off[k]:b.off[k+1]] {
				p.rowBuf = append(p.rowBuf, nu+v)
			}
			p.lpd.AddCols = append(p.lpd.AddCols, lp.Column{Rows: p.rowBuf[lo:len(p.rowBuf):len(p.rowBuf)]})
			p.lpd.AddC = append(p.lpd.AddC, b.w[k])
		}
		if cap(old) < n {
			old = make([]int32, n)
		}
		p.cols[u] = append(old[:0], p.newCol...)
	}
}

// isColumn reports whether LP column j is set k of the buffer: the same
// event rows and the same weight. A surviving bid's weight re-derives
// bit-equal from the patched cache, so a set the delta left alone matches
// its old column.
func (b *setBuf) isColumn(prob *lp.Problem, j, k, nu int) bool {
	rows, ev := prob.Col(j)[1:], b.ev[b.off[k]:b.off[k+1]]
	if prob.C[j] != b.w[k] || len(rows) != len(ev) {
		return false
	}
	for i, v := range ev {
		if int(rows[i]) != nu+v {
			return false
		}
	}
	return true
}

// Round samples, repairs and scores an arrangement from the current LP
// solution from scratch — the tail of Algorithm 1 over the incremental
// state. It is deterministic given Options.Seed, so calling it twice
// without an Update in between returns identical results. It never touches
// the maintained incremental rounding state, which is what makes it the
// oracle the equivalence tests pin Update against.
func (p *Planner) Round() (*Result, error) {
	return finish(p.in, p.conf, columnPicks(p.solver.Problem(), p.drawAll()), p.solver.LiveColumns(), p.sol,
		p.opt, xrand.New(p.opt.Seed), p.truncCount), nil
}

// drawAll draws every user's set from the current LP solution through the
// column lists and returns the column each user drew, or -1 for none.
func (p *Planner) drawAll() []int {
	drawn := make([]int, len(p.cols))
	drawColumns(p.cols, p.sol.X, nil, drawn, p.opt.Alpha, p.opt.Seed, p.opt.Workers)
	return drawn
}
