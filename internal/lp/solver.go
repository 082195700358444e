package lp

import (
	"errors"
	"fmt"
	"math"
)

// Solver is a persistent, warm-starting LP solver. Unlike the one-shot
// solvers (Dense, Revised), a Solver owns its simplex state — basis, LU
// factors, eta arena, Devex reference weights and every scratch vector —
// across solves:
//
//	s := lp.NewSolver(lp.Revised{Workers: w})
//	sol, err := s.Solve(p)          // cold solve, installs the basis
//	sol, err = s.Resolve(delta)     // warm re-solve from the previous basis
//	s.Release()                     // return the state arena to the pool
//
// Solve takes ownership of the problem it is given: the Solver keeps it as
// its current problem without copying it, and every Resolve edits it in
// place. A caller that needs the problem unchanged passes Solve a copy.
//
// Resolve applies a ProblemDelta (columns added/removed, bounds or objective
// coefficients changed) to the Solver's problem and re-optimizes from the
// previous optimal basis instead of the all-slack start. Removed basic
// columns are replaced by free row slacks; if the patched basis turns out
// numerically singular or primal infeasible, Resolve falls back to a cold
// solve automatically, so it is never less correct than solving from
// scratch — only (usually much) faster. Stats reports how often each path
// ran.
//
// The underlying state lives in a sync.Pool arena keyed by the row
// dimension, so short-lived Solvers in a high-QPS serving loop recycle the
// factorization workspace instead of reallocating it per request. To keep
// the steady-state Resolve allocation-free, returned Solutions alias
// solver-owned buffers: X and Y are valid until the next Solve or Resolve
// call on the same Solver (Release detaches them, so the final solution
// survives the solver). Callers that need older solutions must copy.
// A Solver is not safe for concurrent use.
type Solver struct {
	// Config carries the revised-simplex options (pricing rule, worker
	// bound, iteration limits). The zero value uses the package defaults.
	Config Revised

	prob   *Problem // the current problem, owned since Solve
	st     *revisedState
	warmOK bool // previous solve ended Optimal with st.basis valid for prob
	stats  SolverStats

	// scratch reused across Resolve calls
	removed   []bool
	colMap    []int
	slackUsed []bool
	wScratch  []float64
	rowSeen   []int // checkDelta's per-row stamp: the epoch that last listed the row
	seenEpoch int

	// changed-column tracking (TrackChangedColumns)
	trackChanged bool
	prevX        []float64 // previous solution's primal values
	changedCols  []int     // post-delta indices whose x moved in the last solve
	changedAll   bool      // treat every column as changed (cold solve, error)
}

// SolverStats counts how a Solver's solves were served.
type SolverStats struct {
	// ColdSolves counts solves from the all-slack basis (Solve calls plus
	// Resolve fallbacks).
	ColdSolves int
	// WarmSolves counts Resolve calls served from the previous basis.
	WarmSolves int
	// FastFinishes counts warm re-solves that skipped the primal pricing
	// loop entirely: the delta left the basis, c_B and therefore the duals
	// untouched and dual repair made no pivots, so the previous optimality
	// certificate covers every surviving column and only the delta's own
	// columns were priced. The O(|Δ|) serving path for bid arrivals.
	FastFinishes int
	// FallbackSingular counts Resolve calls whose patched basis failed to
	// factorize and fell back to a cold solve.
	FallbackSingular int
	// FallbackInfeasible counts Resolve calls whose patched basis was
	// primal infeasible under the new bounds and fell back to a cold solve —
	// the aggregate of FallbackRepairStall and FallbackBoundInfeasible,
	// retained for callers that only care that the warm path was abandoned.
	FallbackInfeasible int
	// FallbackRepairStall counts fallbacks where the dual repair exhausted
	// its pivot budget or its stall window (even after the partial-warm
	// cutover retry) without reaching primal feasibility.
	FallbackRepairStall int
	// FallbackBoundInfeasible counts fallbacks where a primal-infeasible row
	// had no eligible entering column — the dual-unbounded certificate that
	// the new bounds (numerically) admit no feasible point from this basis.
	FallbackBoundInfeasible int
	// FallbackError counts warm starts abandoned before the repair could
	// run: a removed basic column with no substitutable slack.
	FallbackError int
	// WarmPivots is the total number of simplex iterations spent in warm
	// re-solves (dual-repair pivots plus the primal finish) — the work
	// metric the ≥5× speedup claim is about.
	WarmPivots int
	// Refactorizations counts LU rebuilds on the solver's state (cold
	// starts, eta-chain hygiene, numerical fallbacks) since the state was
	// acquired.
	Refactorizations int64
	// EtaLen is the current eta-chain length — product-form updates
	// accumulated since the last refactorization. A point-in-time depth,
	// not a counter: it shows how far the basis has drifted from its LU.
	EtaLen int
}

// NewSolver returns a persistent solver with the given revised-simplex
// configuration.
func NewSolver(cfg Revised) *Solver {
	return &Solver{Config: cfg}
}

// BoundChange sets row Row's right-hand side to B (the packing form still
// requires B ≥ 0).
type BoundChange struct {
	Row int
	B   float64
}

// ObjChange sets column Col's objective coefficient to C. Col refers to the
// pre-delta column indexing.
type ObjChange struct {
	Col int
	C   float64
}

// ProblemDelta is a small change to the Solver's current problem. It is
// applied in one step: bounds and objective coefficients first (pre-delta
// indices), then column removals, then additions. The row dimension never
// changes. After application, surviving columns keep their relative order
// and added columns are appended in order — the contract incremental callers
// (core.Planner) rely on to track their own column maps without a return
// channel.
type ProblemDelta struct {
	// SetB changes right-hand-side bounds (capacities).
	SetB []BoundChange
	// SetC changes objective coefficients of surviving columns; changes to
	// columns also listed in RemoveCols are ignored.
	SetC []ObjChange
	// RemoveCols lists pre-delta column indices to delete. Duplicates are
	// tolerated.
	RemoveCols []int
	// AddCols are appended after removal; AddC holds their objective
	// coefficients, aligned with AddCols.
	AddCols []Column
	AddC    []float64
}

// Empty reports whether the delta changes nothing.
func (d *ProblemDelta) Empty() bool {
	return len(d.SetB) == 0 && len(d.SetC) == 0 && len(d.RemoveCols) == 0 && len(d.AddCols) == 0
}

// ErrNoProblem is returned by Resolve before any successful Solve.
var ErrNoProblem = errors.New("lp: Resolve called before Solve installed a problem")

// Stats returns the solve-path counters accumulated so far, plus a
// point-in-time snapshot of the state's refactorization count and
// eta-chain depth. Not safe concurrently with Solve/Resolve — read it from
// the same exclusion the solves run under.
func (s *Solver) Stats() SolverStats {
	st := s.stats
	if s.st != nil {
		st.Refactorizations = s.st.refactors
		st.EtaLen = len(s.st.etas)
	}
	return st
}

// TrackChangedColumns enables changed-column tracking: after every solve
// the Solver snapshots the primal values and, on the next warm Resolve,
// records exactly which post-delta columns' values differ from the previous
// solution (mapped across removals and additions). Incremental callers use
// the set to re-derive only the state that depends on moved columns — the
// rounding layer's delta-scoped resampling. Tracking costs one O(n) copy
// and one O(n) compare per solve and nothing else.
func (s *Solver) TrackChangedColumns(on bool) {
	s.trackChanged = on
	s.changedAll = true
}

// ChangedColumns reports the columns whose primal value changed in the last
// solve. all=true means every column must be treated as changed — a cold
// solve (including Resolve fallbacks), a solve error, or tracking having
// just been enabled — and cols is nil in that case. The slice is
// solver-owned and valid until the next Solve/Resolve.
func (s *Solver) ChangedColumns() (cols []int, all bool) {
	if s.changedAll {
		return nil, true
	}
	return s.changedCols, false
}

// snapshotX records the solution's primal values as the baseline for the
// next diff.
func (s *Solver) snapshotX(sol *Solution) {
	if !s.trackChanged || sol == nil {
		return
	}
	s.prevX = append(s.prevX[:0], sol.X...)
}

// diffChanged computes the changed-column set of a warm re-solve: surviving
// columns (via the old→new colMap filled by applyDelta) whose value moved,
// plus every appended column. colMap is monotone on survivors, so the
// result is ascending.
func (s *Solver) diffChanged(oldN int, x []float64) {
	if len(s.prevX) != oldN {
		// No trustworthy baseline (tracking enabled mid-stream).
		s.changedAll = true
		return
	}
	s.changedCols = s.changedCols[:0]
	surv := 0
	for j := 0; j < oldN; j++ {
		nj := s.colMap[j]
		if nj < 0 {
			continue
		}
		surv++
		if s.prevX[j] != x[nj] {
			s.changedCols = append(s.changedCols, nj)
		}
	}
	for nj := surv; nj < len(x); nj++ {
		s.changedCols = append(s.changedCols, nj)
	}
	s.changedAll = false
}

// Problem returns the Solver's current (post-delta) problem: the one Solve
// was given, as every Resolve since has edited it. Callers must treat it as
// read-only; mutate it only through Resolve.
func (s *Solver) Problem() *Problem { return s.prob }

// Solve takes ownership of p, installs it as the Solver's current problem
// and solves it cold (all-slack basis). p is not copied: later Resolve calls
// edit it in place, so the caller must not mutate it, and must not rely on
// it staying unchanged, after handing it over. The state arena is acquired
// from the dimension pool on first use and reused afterwards.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	if err := s.Config.validate(); err != nil {
		return nil, err
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	s.prob = p
	return s.cold()
}

// Release returns the simplex state to the dimension-keyed arena pool and
// detaches the problem. The Solver may be reused with a fresh Solve.
func (s *Solver) Release() {
	if s.st != nil {
		releaseState(s.st)
		s.st = nil
	}
	s.prob = nil
	s.warmOK = false
}

// Resolve applies the delta to the current problem and re-optimizes. It
// warm-starts from the previous basis whenever that basis is still
// factorizable and primal feasible under the new data, and falls back to a
// cold solve otherwise. Either way the returned solution is optimal for the
// post-delta problem (and certifiable by Verify against Problem()).
func (s *Solver) Resolve(d ProblemDelta) (*Solution, error) {
	if s.prob == nil {
		return nil, ErrNoProblem
	}
	if err := s.Config.validate(); err != nil {
		return nil, err
	}
	s.changedAll = true // cleared only by a successful warm diff
	oldN := s.prob.NumCols()
	if err := s.checkDelta(&d, oldN); err != nil {
		return nil, err
	}

	if len(d.RemoveCols) > 0 {
		s.markRemoved(d.RemoveCols, oldN)
	}
	warm := s.warmOK && s.st != nil && s.prob.NumRows > 0
	basisSwaps := 0
	cBasic := false
	if warm {
		basisSwaps, warm = s.substituteRemovedBasics(&d, oldN)
		if !warm {
			s.stats.FallbackError++
		}
	}
	if warm {
		// A c change on a basic column moves the duals, which invalidates
		// the previous optimality certificate the fast finish relies on.
		for _, oc := range d.SetC {
			if s.st.posOf[oc.Col] >= 0 {
				cBasic = true
				break
			}
		}
	}
	// checkDelta validated every entering bound, coefficient and column, and
	// applyDelta preserves the CSC invariants by construction, so the
	// patched problem needs no O(nnz) re-validation here — full Check on
	// every small delta would dominate the serving hot path.
	s.applyDelta(&d, oldN)
	if s.st != nil && (len(d.RemoveCols) > 0 || len(d.AddCols) > 0) {
		s.st.aRowsOK = false // column structure changed under the row mirror
	}
	if !warm {
		return s.cold()
	}

	st := s.st
	newN := s.prob.NumCols()
	s.remapState(oldN, newN)
	st.loadRHS(!s.Config.NoPerturb)
	// Bind the worker pool and timer sink before the repair phase: pivot()
	// does the same later, but dual repair's solves and pricing pass run
	// first and must see the configured pool, not the previous solve's.
	s.Config.configure(st)
	s.remapRed(&d, oldN, newN)

	refactorEvery := s.Config.RefactorEvery
	if refactorEvery <= 0 {
		refactorEvery = 128
	}
	// The previous factorization plus the eta file still represent the
	// patched basis (every removal swap was a product-form update), so a
	// small-delta re-solve reuses them and just refreshes x_B/c_B under the
	// new bounds and objective. The LU is rebuilt only to shed a long eta
	// chain — the same hygiene schedule the pivot loops use.
	if len(st.etas) >= refactorEvery {
		if err := st.refactorize(); err != nil {
			s.stats.FallbackSingular++
			return s.cold()
		}
	} else {
		st.recomputeXB()
	}
	// The patched basis is typically primal infeasible after bound shrinks
	// or basic-column removals; a short dual-simplex phase repairs it in a
	// few pivots. The pivot budget scales with the delta — a small delta
	// that needs thousands of repair pivots has lost the warm-start race and
	// should cut over early — capped at the old flat bound for bulk deltas.
	// If the repair still fails after its partial-warm cutover, solve cold:
	// correctness never depends on the warm path.
	budget := s.Config.RepairBudget
	if budget == 0 {
		deltaSize := len(d.SetB) + len(d.SetC) + len(d.RemoveCols) + len(d.AddCols)
		budget = 64 + 32*deltaSize
		if flat := 4*st.m + 16; budget > flat {
			budget = flat
		}
	}
	repairPivots, repair := st.dualRepair(budget, refactorEvery)
	switch repair {
	case repairSingular:
		s.stats.FallbackSingular++
		return s.cold()
	case repairStalled:
		s.stats.FallbackInfeasible++
		s.stats.FallbackRepairStall++
		return s.cold()
	case repairUnbounded:
		s.stats.FallbackInfeasible++
		s.stats.FallbackBoundInfeasible++
		return s.cold()
	}
	s.stats.WarmSolves++
	s.stats.WarmPivots += repairPivots
	if repairPivots == 0 && basisSwaps == 0 && !cBasic {
		// The basis and c_B — and therefore the duals — are exactly the
		// previous solve's, which certified every then-existing column
		// optimal. Only the delta's own columns (appended, or nonbasic with
		// a changed c) can break the certificate: price exactly those, and
		// if none improves, the solution is optimal without a single pivot
		// or full pricing pass.
		if sol, done := s.fastFinish(&d, oldN); done {
			s.stats.FastFinishes++
			return s.finishWarm(sol, nil, oldN)
		}
	}
	sol, err := s.Config.pivot(st, true)
	if sol != nil {
		s.stats.WarmPivots += sol.Iterations
	}
	return s.finishWarm(sol, err, oldN)
}

// fastFinish prices just the delta's columns under the (unchanged) duals;
// if none is improving, it extracts the optimal solution directly. done is
// false when some delta column improves and the full pivot loop must run.
func (s *Solver) fastFinish(d *ProblemDelta, oldN int) (*Solution, bool) {
	st := s.st
	st.btran()
	newN := s.prob.NumCols()
	for _, oc := range d.SetC {
		nj := s.colMap[oc.Col]
		if nj >= 0 && st.posOf[nj] < 0 && st.reducedCost(nj) > reducedTol {
			return nil, false
		}
	}
	for nj := newN - len(d.AddCols); nj < newN; nj++ {
		if st.reducedCost(nj) > reducedTol {
			return nil, false
		}
	}
	return st.extract(0), true
}

// finishWarm is the warm path's epilogue: record warm-start validity, then
// feed the changed-column tracker.
func (s *Solver) finishWarm(sol *Solution, err error, oldN int) (*Solution, error) {
	sol, err = s.finish(sol, err)
	if s.trackChanged && err == nil && sol != nil && sol.Status == Optimal {
		s.diffChanged(oldN, sol.X)
		s.snapshotX(sol)
	}
	return sol, err
}

// pivotSubstTol is the minimum pivot magnitude accepted when swapping a
// removed basic column for a slack. It is far stricter than pivotTol: a
// marginal pivot here seeds the whole warm solve with a badly conditioned
// factorization, and falling back cold is cheap.
const pivotSubstTol = 1e-7

// warmFeasTol is the primal-feasibility tolerance on the warm basis: x_B
// entries below it mean the previous basis is infeasible under the new
// bounds and the warm start is abandoned. It matches the round-off clamping
// threshold of refactorize.
const warmFeasTol = 1e-9

// cold solves the current problem from the all-slack basis on the (pooled)
// state arena.
func (s *Solver) cold() (*Solution, error) {
	s.stats.ColdSolves++
	s.changedAll = true
	if sol, done := trivialSolution(s.prob); done {
		s.warmOK = false
		s.snapshotX(sol)
		return sol, solutionErr(sol)
	}
	if s.st == nil {
		s.st = acquireState(s.prob.NumRows)
	}
	s.st.rebind(s.prob, !s.Config.NoPerturb)
	if err := s.st.refactorize(); err != nil {
		s.warmOK = false
		return nil, err
	}
	sol, err := s.finish(s.Config.pivot(s.st, false))
	s.snapshotX(sol)
	return sol, err
}

// finish records whether the state is a valid warm-start source.
func (s *Solver) finish(sol *Solution, err error) (*Solution, error) {
	s.warmOK = err == nil && sol != nil && sol.Status == Optimal
	return sol, err
}

// checkDelta validates the delta against the current problem shape.
func (s *Solver) checkDelta(d *ProblemDelta, oldN int) error {
	m := s.prob.NumRows
	for _, bc := range d.SetB {
		if bc.Row < 0 || bc.Row >= m {
			return fmt.Errorf("lp: delta bound on row %d of %d", bc.Row, m)
		}
		if bc.B < 0 || math.IsNaN(bc.B) || math.IsInf(bc.B, 0) {
			return fmt.Errorf("lp: delta bound b[%d] = %v (packing form requires finite b ≥ 0)", bc.Row, bc.B)
		}
	}
	for _, oc := range d.SetC {
		if oc.Col < 0 || oc.Col >= oldN {
			return fmt.Errorf("lp: delta objective on column %d of %d", oc.Col, oldN)
		}
		if math.IsNaN(oc.C) || math.IsInf(oc.C, 0) {
			return fmt.Errorf("lp: non-finite delta objective c[%d]", oc.Col)
		}
	}
	for _, j := range d.RemoveCols {
		if j < 0 || j >= oldN {
			return fmt.Errorf("lp: delta removes column %d of %d", j, oldN)
		}
	}
	if len(d.AddCols) != len(d.AddC) {
		return fmt.Errorf("lp: %d added columns with %d objective coefficients", len(d.AddCols), len(d.AddC))
	}
	if len(s.rowSeen) != m {
		s.rowSeen = make([]int, m)
	}
	for k := range d.AddCols {
		s.seenEpoch++
		for _, r := range d.AddCols[k].Rows {
			if r < 0 || r >= m {
				return fmt.Errorf("lp: added column %d references row %d of %d", k, r, m)
			}
			if s.rowSeen[r] == s.seenEpoch {
				return &DuplicateRowError{Col: k, Row: r}
			}
			s.rowSeen[r] = s.seenEpoch
		}
		if math.IsNaN(d.AddC[k]) || math.IsInf(d.AddC[k], 0) {
			return fmt.Errorf("lp: non-finite objective for added column %d", k)
		}
	}
	return nil
}

// substituteRemovedBasics pivots every basic variable about to be removed
// out of the basis, replacing it with a nonbasic row slack via a legal
// product-form update: the entering slack is the first of the column's own
// rows whose FTRAN'd pivot element is comfortably nonzero, so the patched
// basis is nonsingular by construction (the failure of naive substitution,
// which picks a slack blind and routinely lands on a zero pivot). Basic
// values are left stale — the post-delta x_B refresh recomputes them and
// dualRepair absorbs any infeasibility the swap introduced. Runs before the
// delta mutates the column storage, while the removed columns' row lists
// are still readable; variable indices stay in the pre-delta space and
// remapState translates them after compaction. Reports the number of swaps
// performed (zero means the basis, and so the duals, survived the delta
// untouched — what qualifies the re-solve for the fast finish) and ok=false
// when some removed basic column has no usable entering slack — then the
// warm start is abandoned.
func (s *Solver) substituteRemovedBasics(d *ProblemDelta, oldN int) (swaps int, ok bool) {
	st := s.st
	if len(d.RemoveCols) == 0 {
		return 0, true
	}
	for i, v := range st.basis {
		if v >= oldN || !s.removed[v] {
			continue
		}
		entered := false
		for _, r32 := range s.prob.Col(v) {
			q := oldN + int(r32)
			if st.posOf[q] >= 0 {
				continue // that row's slack is already basic
			}
			st.ftran(q) // d = B⁻¹ e_r
			dr := st.d[i]
			if dr < pivotSubstTol && dr > -pivotSubstTol {
				continue // pivot too small: basis would go singular
			}
			st.posOf[v] = -1
			st.basis[i] = q
			st.posOf[q] = i
			st.cB[i] = 0
			st.pushEta(i)
			swaps++
			entered = true
			break
		}
		if !entered {
			return swaps, false
		}
	}
	return swaps, true
}

// markRemoved fills s.removed, the pre-delta removal mask that both
// substituteRemovedBasics and applyDelta read.
func (s *Solver) markRemoved(cols []int, oldN int) {
	if cap(s.removed) < oldN {
		s.removed = make([]bool, oldN)
	} else {
		s.removed = s.removed[:oldN]
		for i := range s.removed {
			s.removed[i] = false
		}
	}
	for _, j := range cols {
		s.removed[j] = true
	}
}

// applyDelta mutates the current problem: bounds, objective coefficients,
// column compaction (filling s.colMap with the old→new index map, -1 for
// removed, from the mask markRemoved filled), then appended columns.
func (s *Solver) applyDelta(d *ProblemDelta, oldN int) {
	p := s.prob
	for _, bc := range d.SetB {
		p.B[bc.Row] = bc.B
	}
	for _, oc := range d.SetC {
		p.C[oc.Col] = oc.C
	}
	s.colMap = resizeI(s.colMap, oldN)
	if len(d.RemoveCols) == 0 {
		for j := range s.colMap {
			s.colMap[j] = j
		}
	} else {
		w, nz := 0, 0
		for j := 0; j < oldN; j++ {
			if s.removed[j] {
				s.colMap[j] = -1
				continue
			}
			lo, hi := p.ColPtr[j], p.ColPtr[j+1]
			if nz != lo {
				copy(p.Rows[nz:nz+hi-lo], p.Rows[lo:hi])
			}
			nz += hi - lo
			p.C[w] = p.C[j]
			s.colMap[j] = w
			w++
			p.ColPtr[w] = nz
		}
		p.ColPtr = p.ColPtr[:w+1]
		p.C = p.C[:w]
		p.Rows = p.Rows[:nz]
	}
	for k := range d.AddCols {
		p.AddColumn(d.AddC[k], d.AddCols[k].Rows)
	}
}

// remapState translates the persistent state from the pre-delta variable
// space (oldN structurals) to the post-delta one (newN): basis entries,
// posOf, and the Devex reference weights (surviving columns keep their
// weight, added columns start at the unit reference, slacks shift).
func (s *Solver) remapState(oldN, newN int) {
	st := s.st
	m := st.m
	for i, v := range st.basis {
		if v < oldN {
			st.basis[i] = s.colMap[v] // ≥ 0: removed basics were substituted
		} else {
			st.basis[i] = newN + (v - oldN)
		}
	}
	st.n = newN
	st.posOf = resizeI(st.posOf, newN+m)
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i, v := range st.basis {
		st.posOf[v] = i
	}
	if len(st.weights) == oldN+m {
		s.wScratch = resizeF(s.wScratch, newN+m)
		w := s.wScratch
		for j := 0; j < newN+m; j++ {
			w[j] = 1
		}
		for j := 0; j < oldN; j++ {
			if nj := s.colMap[j]; nj >= 0 {
				w[nj] = st.weights[j]
			}
		}
		for i := 0; i < m; i++ {
			w[newN+i] = st.weights[oldN+i]
		}
		st.weights, s.wScratch = w, st.weights
	}
}

// remapRed carries the state's reduced-cost cache across the delta. After a
// structural delta the entries and the dirty queue move with their variables
// through colMap (one O(n + m) pass, in place) and removed columns drop
// out. Every column whose c_j is new — SetC targets and appended columns —
// is queued dirty for the next syncRed. Bound changes touch no input of a
// reduced cost, so a SetB-only delta leaves the cache exactly as valid as it
// was. Timed as pricing, like the syncs it feeds.
func (s *Solver) remapRed(d *ProblemDelta, oldN, newN int) {
	st := s.st
	if !st.redOK {
		return
	}
	t0 := tick(st.timers)
	defer st.timers.add(phPricing, t0)
	if len(d.RemoveCols) > 0 || len(d.AddCols) > 0 {
		// colMap ascends with colMap[j] ≤ j, so a forward pass compacts the
		// structural entries in place below the slack block, and copy moves
		// that block whether or not the ranges overlap.
		red := st.redC
		for j := 0; j < oldN; j++ {
			if nj := s.colMap[j]; nj >= 0 {
				red[nj] = red[j]
			}
		}
		if total := newN + st.m; cap(red) < total {
			red = append(red, make([]float64, total-len(red))...)
		} else {
			red = red[:total]
		}
		copy(red[newN:], red[oldN:oldN+st.m])
		st.redC = red
		dirty := st.redDirty[:0]
		for _, j := range st.redDirty {
			if nj := s.colMap[j]; nj >= 0 {
				dirty = append(dirty, int32(nj))
			}
		}
		st.redDirty = dirty
	}
	for _, oc := range d.SetC {
		if nj := s.colMap[oc.Col]; nj >= 0 {
			st.redDirty = append(st.redDirty, int32(nj))
		}
	}
	for nj := newN - len(d.AddCols); nj < newN; nj++ {
		st.redDirty = append(st.redDirty, int32(nj))
	}
	// Re-solves that end in the fast finish never sync, and repeated SetC on
	// one column queues it again each time: past n + m entries the queue
	// costs more than the full pass that replaces it.
	if len(st.redDirty) > newN+st.m {
		st.redOK = false
		st.redDirty = st.redDirty[:0]
	}
}
