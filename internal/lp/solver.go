package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Solver is a persistent, warm-starting LP solver. Unlike the one-shot
// SolveConfig, a Solver owns its simplex state — basis, LU factors, eta
// arena, Devex reference weights and every scratch vector — across solves:
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
// Columns live in stable slots, so a small delta costs what it touches, not
// O(n). A column removed by a warm Resolve becomes a tombstone: its slot
// keeps its rows, its cost becomes 0 and its value stays 0, so Verify still
// certifies Problem(), but it is never priced, never basic and never
// counted (LiveColumns, Live). Added columns are always appended after the
// highest slot and never reuse one, so the live columns keep the relative
// order a compacted problem would give them, and every pricing rule sees
// them in that order. Once tombstones pass a fixed share of the slots, and
// before any cold solve, one compaction renumbers the live slots
// monotonically and drops the tombstones; Renumbering reports that map, the
// one place callers learn of it.
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
	cfg Revised // set once, by NewSolver

	prob   *Problem // the current problem, owned since Solve
	st     *revisedState
	warmOK bool // previous solve ended Optimal with st.basis valid for prob
	stats  SolverStats

	// newOf is the renumbering of the last compaction: old slot → new slot,
	// or -1 for a dropped tombstone. renumbered reports whether the last
	// Solve or Resolve ran one.
	newOf      []int32
	renumbered bool

	// scratch reused across Resolve calls
	subPos    []int
	rowSeen   []int // checkDelta's per-row stamp: the epoch that last listed the row
	seenEpoch int

	// changed-column tracking (ChangedColumns): the basic structurals of
	// the previous solution, ascending, and their values. Every other column
	// was 0.
	prevOK      bool // prevSlots/prevVals describe the previous solution
	prevSlots   []int32
	prevVals    []float64
	changedCols []int // slots whose x moved in the last solve
	changedAll  bool  // treat every column as changed (cold solve, error)
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
	// Compactions counts the renumberings that dropped tombstones: when
	// they passed their share of the slots, and before cold solves of a
	// problem that had removed columns.
	Compactions int
}

// NewSolver returns a persistent solver with the given revised-simplex
// configuration.
func NewSolver(cfg Revised) *Solver {
	return &Solver{cfg: cfg, changedAll: true}
}

// BoundChange sets row Row's right-hand side to B (the packing form still
// requires B ≥ 0).
type BoundChange struct {
	Row int
	B   float64
}

// ObjChange sets column Col's objective coefficient to C. Col is a live
// slot of the pre-delta problem.
type ObjChange struct {
	Col int
	C   float64
}

// ProblemDelta is a small change to the Solver's current problem. It is
// applied in one step: bounds and objective coefficients first, then column
// removals, then additions, all naming pre-delta slots. The row dimension
// never changes. A removed column's slot becomes a tombstone and every other
// column keeps its slot; added columns take the next slots after the
// highest one, in order (NumCols() + k for AddCols[k]). A compaction
// (Solver.Renumbering) is the only thing that moves a slot, so incremental
// callers (core.Planner) keep their column lists in slots and remap them
// only when it runs.
type ProblemDelta struct {
	// SetB changes right-hand-side bounds (capacities).
	SetB []BoundChange
	// SetC changes objective coefficients of live columns; changes to
	// columns also listed in RemoveCols are ignored.
	SetC []ObjChange
	// RemoveCols lists live slots to delete. Duplicates are tolerated.
	RemoveCols []int
	// AddCols are appended after removal; AddC holds their objective
	// coefficients, aligned with AddCols.
	AddCols []Column
	AddC    []float64
}

// ErrNoProblem is returned by Resolve before any successful Solve.
var ErrNoProblem = errors.New("lp: Resolve called before Solve installed a problem")

// TombstoneError reports a delta whose RemoveCols or SetC names a slot an
// earlier delta already removed.
type TombstoneError struct {
	Col int
}

func (e *TombstoneError) Error() string {
	return fmt.Sprintf("lp: delta names column %d, which an earlier delta removed", e.Col)
}

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

// ChangedColumns reports, ascending, the slots whose primal value changed in
// the last solve: live slots whose value moved, then every appended slot.
// Tombstones are never listed. all=true means every column must be treated
// as changed — no solve yet, a cold solve (including Resolve fallbacks) or a
// solve error — and cols is nil in that case. The slots are post-compaction
// ones when the solve renumbered (Renumbering). The slice is solver-owned
// and valid until the next Solve/Resolve. Incremental callers use the set to
// re-derive only the state that depends on moved columns — the rounding
// layer's delta-scoped resampling. Only a basic column can be nonzero, so
// the tracking costs every solve O(m + |Δ|): the slots basic before or after
// it, plus the appended ones.
func (s *Solver) ChangedColumns() (cols []int, all bool) {
	if s.changedAll {
		return nil, true
	}
	return s.changedCols, false
}

// snapshotX records the solution's basic structurals and their values as the
// baseline for the next diff.
func (s *Solver) snapshotX(sol *Solution) {
	s.prevOK = sol != nil && sol.Status == Optimal
	if !s.prevOK {
		return
	}
	s.prevSlots, s.prevVals = s.prevSlots[:0], s.prevVals[:0]
	if s.prob.NumRows == 0 {
		return // trivialSolution's x = 0, with no state behind it
	}
	for _, j := range s.st.xSet {
		s.prevSlots = append(s.prevSlots, j)
		s.prevVals = append(s.prevVals, sol.X[j])
	}
}

// diffChanged computes the changed-column set of a warm re-solve whose delta
// appended the last added slots. Only a slot that was basic before (the
// snapshot) or is basic now (xSet) can have moved; the two lists are
// ascending, so one merge yields the surviving slots whose value differs,
// in order, and the appended slots follow.
func (s *Solver) diffChanged(added int, x []float64) {
	if !s.prevOK {
		s.changedAll = true // no trustworthy baseline
		return
	}
	st := s.st
	first := len(x) - added
	prev, cur := s.prevSlots, st.xSet
	s.changedCols = s.changedCols[:0]
	for a, b := 0, 0; a < len(prev) || b < len(cur); {
		var j int
		old := 0.0
		switch {
		case b == len(cur) || (a < len(prev) && prev[a] < cur[b]):
			j, old = int(prev[a]), s.prevVals[a]
			a++
		case a == len(prev) || cur[b] < prev[a]:
			j = int(cur[b])
			b++
		default:
			j, old = int(cur[b]), s.prevVals[a]
			a++
			b++
		}
		if j < first && st.posOf[j] != deadSlot && old != x[j] {
			s.changedCols = append(s.changedCols, j)
		}
	}
	for j := first; j < len(x); j++ {
		s.changedCols = append(s.changedCols, j)
	}
	s.changedAll = false
}

// Problem returns the Solver's current (post-delta) problem: the one Solve
// was given, as every Resolve since has edited it, tombstones included (each
// a zero-cost column with its rows; Live tells them apart). Callers must
// treat it as read-only; mutate it only through Resolve.
func (s *Solver) Problem() *Problem { return s.prob }

// LiveColumns returns the number of live columns of Problem(): its slots
// minus its tombstones.
func (s *Solver) LiveColumns() int {
	if s.prob == nil {
		return 0
	}
	return s.prob.NumCols() - s.dead()
}

// Live reports whether slot j of Problem() holds a live column rather than
// a tombstone.
func (s *Solver) Live(j int) bool {
	if s.prob == nil || j < 0 || j >= s.prob.NumCols() {
		return false
	}
	return !s.isDead(j)
}

// Renumbering returns the compaction the last Solve or Resolve ran, or nil
// if it kept every slot: old slot j is now slot r[j], and r[j] < 0 marks a
// dropped tombstone. It covers the slots the delta appended, and it is
// monotone on the live slots. This is the only way a slot moves, so a
// caller that keeps column lists in slots remaps them exactly when it is
// non-nil — also after a Resolve that returned an error, if the delta was
// applied. The slice is solver-owned and valid until the next Solve/Resolve.
func (s *Solver) Renumbering() []int32 {
	if !s.renumbered {
		return nil
	}
	return s.newOf
}

// Solve takes ownership of p, installs it as the Solver's current problem
// and solves it cold (all-slack basis). p is not copied: later Resolve calls
// edit it in place, so the caller must not mutate it, and must not rely on
// it staying unchanged, after handing it over. The state arena is acquired
// from the dimension pool on first use and reused afterwards.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	if err := s.cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	s.prob = p
	if s.st != nil {
		s.st.dead = 0 // the state stays bound to the old problem until cold rebinds it
	}
	s.renumbered = false
	return s.cold(nil)
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

// compactDivisor sets the tombstone share that triggers a compaction on the
// warm path: more than 1/compactDivisor of the slots. Compaction is O(n), so
// a small delta pays for it once every ~n/compactDivisor removals, while
// the pricing scans and the per-slot arrays carry at most that share of
// dead slots. On the replan_churn benchmark (2-core Xeon, ten rotated runs
// per value) 8, 16 and 32 gave median op_p50_ms of 0.213, 0.210 and
// 0.216 ms and median op_tail_ms of 9.36, 9.20 and 9.73 ms, all within
// each other's spread: the trade is flat around 16.
const compactDivisor = 16

// Resolve applies the delta to the current problem and re-optimizes. It
// warm-starts from the previous basis whenever that basis is still
// factorizable and primal feasible under the new data, and falls back to a
// cold solve otherwise. Either way the returned solution is optimal for the
// post-delta problem (and certifiable by Verify against Problem()).
func (s *Solver) Resolve(d ProblemDelta) (*Solution, error) {
	if s.prob == nil {
		return nil, ErrNoProblem
	}
	if err := s.cfg.validate(); err != nil {
		return nil, err
	}
	s.changedAll = true // cleared only by a successful warm diff
	s.renumbered = false
	if err := s.checkDelta(&d); err != nil {
		return nil, err
	}

	warm := s.warmOK && s.st != nil && s.prob.NumRows > 0
	basisSwaps := 0
	cBasic := false
	if warm {
		basisSwaps, warm = s.substituteRemovedBasics(&d)
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
	oldN := s.prob.NumCols()
	s.applyDelta(&d)
	if !warm {
		return s.cold(d.RemoveCols)
	}

	st := s.st
	s.patchState(&d, oldN)
	if st.dead*compactDivisor > st.n {
		s.compact(nil)
		s.remapState()
	}
	st.loadRHS(!s.cfg.tuning.noPerturb)
	// Bind the worker pool and timer sink before the repair phase: pivot()
	// does the same later, but dual repair's solves and pricing pass run
	// first and must see the configured pool, not the previous solve's.
	t := s.cfg.configure(st)
	// The previous factorization plus the eta file still represent the
	// patched basis (every removal swap was a product-form update), so a
	// small-delta re-solve reuses them and just refreshes x_B/c_B under the
	// new bounds and objective. The LU is rebuilt only to shed a long eta
	// chain — the same hygiene schedule the pivot loops use.
	if len(st.etas) >= t.refactorEvery {
		if err := st.refactorize(); err != nil {
			s.stats.FallbackSingular++
			return s.cold(nil)
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
	budget := t.repairBudget
	if budget <= 0 {
		deltaSize := len(d.SetB) + len(d.SetC) + len(d.RemoveCols) + len(d.AddCols)
		budget = 64 + 32*deltaSize
		if flat := 4*st.m + 16; budget > flat {
			budget = flat
		}
	}
	repairPivots, repair := st.dualRepair(budget, t.refactorEvery)
	switch repair {
	case repairSingular:
		s.stats.FallbackSingular++
		return s.cold(nil)
	case repairStalled:
		s.stats.FallbackInfeasible++
		s.stats.FallbackRepairStall++
		return s.cold(nil)
	case repairUnbounded:
		s.stats.FallbackInfeasible++
		s.stats.FallbackBoundInfeasible++
		return s.cold(nil)
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
		if sol, done := s.fastFinish(&d); done {
			s.stats.FastFinishes++
			return s.finishWarm(sol, nil, len(d.AddCols))
		}
	}
	sol, err := s.cfg.pivot(st, true)
	if sol != nil {
		s.stats.WarmPivots += sol.Iterations
	}
	return s.finishWarm(sol, err, len(d.AddCols))
}

// slotOf returns the current slot of pre-delta slot j, or -1 if j is a
// tombstone.
func (s *Solver) slotOf(j int) int {
	if s.renumbered {
		return int(s.newOf[j])
	}
	if s.st.posOf[j] == deadSlot {
		return -1
	}
	return j
}

// fastFinish prices just the delta's columns under the (unchanged) duals;
// if none is improving, it extracts the optimal solution directly. done is
// false when some delta column improves and the full pivot loop must run.
func (s *Solver) fastFinish(d *ProblemDelta) (*Solution, bool) {
	st := s.st
	st.btran()
	newN := s.prob.NumCols()
	for _, oc := range d.SetC {
		nj := s.slotOf(oc.Col)
		if nj >= 0 && st.posOf[nj] == -1 && st.reducedCost(nj) > reducedTol {
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
func (s *Solver) finishWarm(sol *Solution, err error, added int) (*Solution, error) {
	sol, err = s.finish(sol, err)
	if err == nil && sol != nil && sol.Status == Optimal {
		s.diffChanged(added, sol.X)
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
// state arena. removed lists slots the pending delta removed without
// tombstoning them; they and every tombstone are compacted away first, so a
// cold solve always sees a problem without tombstones.
func (s *Solver) cold(removed []int) (*Solution, error) {
	if s.dead() > 0 || len(removed) > 0 {
		s.compact(removed)
	}
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
	s.st.rebind(s.prob, !s.cfg.tuning.noPerturb)
	if err := s.st.refactorize(); err != nil {
		s.warmOK = false
		return nil, err
	}
	sol, err := s.finish(s.cfg.pivot(s.st, false))
	s.snapshotX(sol)
	return sol, err
}

// finish records whether the state is a valid warm-start source.
func (s *Solver) finish(sol *Solution, err error) (*Solution, error) {
	s.warmOK = err == nil && sol != nil && sol.Status == Optimal
	return sol, err
}

// dead returns the number of tombstones in the problem. While it is
// positive, the state is bound to the problem and marks each of them
// deadSlot in posOf.
func (s *Solver) dead() int {
	if s.st == nil {
		return 0
	}
	return s.st.dead
}

// isDead reports whether slot j is a tombstone.
func (s *Solver) isDead(j int) bool {
	return s.dead() > 0 && s.st.posOf[j] == deadSlot
}

// checkDelta validates the delta against the current problem shape.
func (s *Solver) checkDelta(d *ProblemDelta) error {
	m, n := s.prob.NumRows, s.prob.NumCols()
	for _, bc := range d.SetB {
		if bc.Row < 0 || bc.Row >= m {
			return fmt.Errorf("lp: delta bound on row %d of %d", bc.Row, m)
		}
		if bc.B < 0 || math.IsNaN(bc.B) || math.IsInf(bc.B, 0) {
			return fmt.Errorf("lp: delta bound b[%d] = %v (packing form requires finite b ≥ 0)", bc.Row, bc.B)
		}
	}
	for _, oc := range d.SetC {
		if oc.Col < 0 || oc.Col >= n {
			return fmt.Errorf("lp: delta objective on column %d of %d", oc.Col, n)
		}
		if s.isDead(oc.Col) {
			return &TombstoneError{Col: oc.Col}
		}
		if math.IsNaN(oc.C) || math.IsInf(oc.C, 0) {
			return fmt.Errorf("lp: non-finite delta objective c[%d]", oc.Col)
		}
	}
	for _, j := range d.RemoveCols {
		if j < 0 || j >= n {
			return fmt.Errorf("lp: delta removes column %d of %d", j, n)
		}
		if s.isDead(j) {
			return &TombstoneError{Col: j}
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
// which picks a slack blind and routinely lands on a zero pivot). The
// removed basics are visited in ascending basis position. Basic values are
// left stale — the post-delta x_B refresh recomputes them and dualRepair
// absorbs any infeasibility the swap introduced. Reports the number of swaps
// performed (zero means the basis, and so the duals, survived the delta
// untouched — what qualifies the re-solve for the fast finish) and ok=false
// when some removed basic column has no usable entering slack — then the
// warm start is abandoned.
func (s *Solver) substituteRemovedBasics(d *ProblemDelta) (swaps int, ok bool) {
	st := s.st
	oldN := s.prob.NumCols()
	s.subPos = s.subPos[:0]
	for _, j := range d.RemoveCols {
		if i := st.posOf[j]; i >= 0 {
			s.subPos = append(s.subPos, i)
		}
	}
	slices.Sort(s.subPos)
	s.subPos = slices.Compact(s.subPos)
	for _, i := range s.subPos {
		v := st.basis[i]
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

// applyDelta mutates the current problem in place: bounds, objective
// coefficients, a zero cost for every removed column (its slot and rows
// stay), then appended columns.
func (s *Solver) applyDelta(d *ProblemDelta) {
	p := s.prob
	for _, bc := range d.SetB {
		p.B[bc.Row] = bc.B
	}
	for _, oc := range d.SetC {
		p.C[oc.Col] = oc.C
	}
	for _, j := range d.RemoveCols {
		p.C[j] = 0
	}
	for k := range d.AddCols {
		p.AddColumn(d.AddC[k], d.AddCols[k].Rows)
	}
}

// patchState carries the warm state across an applied delta in O(m + |Δ|):
// it tombstones the removed slots, shifts the slack block of every
// per-variable array past the appended slots (added columns start nonbasic
// at the unit Devex reference), patches the row mirror, and queues every
// column whose c_j is new — SetC targets, tombstones and appended columns —
// for the reduced-cost cache's next sync. The candidate index marks each
// tombstone and refreshes the slots growSlots moved or added. Bound changes
// touch no input of a reduced cost, so a SetB-only delta leaves the cache
// exactly as valid as it was.
func (s *Solver) patchState(d *ProblemDelta, oldN int) {
	st := s.st
	m := st.m
	newN := s.prob.NumCols()
	devexW := len(st.weights) == oldN+m
	idx := st.redOK && st.idxOK
	for _, j := range d.RemoveCols {
		if st.posOf[j] == deadSlot {
			continue // listed twice
		}
		st.posOf[j] = deadSlot
		if devexW {
			st.weights[j] = 0
		}
		if idx {
			st.tombs[j>>6] |= 1 << (j & 63)
		}
		st.dead++
	}
	if added := newN - oldN; added > 0 {
		for i, v := range st.basis {
			if v >= oldN {
				st.basis[i] = v + added
			}
		}
		st.posOf = growSlots(st.posOf, oldN, newN, m, -1)
		if devexW {
			st.weights = growSlots(st.weights, oldN, newN, m, 1)
		}
		st.n = newN
		for j := oldN; j < newN; j++ {
			st.appendARows(j)
		}
	}
	if !st.redOK {
		return
	}
	t0 := tick(st.timers)
	defer st.timers.add(phSync, t0)
	if newN > oldN {
		st.redC = growSlots(st.redC, oldN, newN, m, 0)
		if idx {
			st.growIndex(oldN, newN)
		}
	}
	for _, oc := range d.SetC {
		st.redDirty = append(st.redDirty, int32(oc.Col))
	}
	for _, j := range d.RemoveCols {
		st.redDirty = append(st.redDirty, int32(j))
	}
	for j := oldN; j < newN; j++ {
		st.redDirty = append(st.redDirty, int32(j))
	}
	// Re-solves that end in the fast finish never sync, and repeated SetC on
	// one column queues it again each time: past n + m entries the queue
	// costs more than the full pass that replaces it.
	if len(st.redDirty) > newN+m {
		st.redOK = false
		st.redDirty = st.redDirty[:0]
	}
}

// growSlots resizes a per-variable array from oldN+m to newN+m entries for
// newN-oldN appended slots: the m slack entries move up behind them, and
// the appended entries are set to fill. Amortized O(m + appended): the
// array grows through slices.Grow, as resize grows every other per-slot
// array.
func growSlots[T any](a []T, oldN, newN, m int, fill T) []T {
	a = slices.Grow(a, newN-oldN)[:newN+m]
	copy(a[newN:], a[oldN:oldN+m])
	for j := oldN; j < newN; j++ {
		a[j] = fill
	}
	return a
}

// compact drops every tombstone, plus the slots in removed (a delta applied
// without tombstoning), from the problem: one monotone renumbering of the
// surviving slots, recorded in newOf for Renumbering. The warm path follows
// it with remapState; a cold solve rebinds the state instead.
func (s *Solver) compact(removed []int) {
	p := s.prob
	n := p.NumCols()
	newOf := resize(s.newOf, n)
	for j := range newOf {
		newOf[j] = 0
		if s.isDead(j) {
			newOf[j] = -1
		}
	}
	for _, j := range removed {
		newOf[j] = -1
	}
	w, nz := 0, 0
	for j := 0; j < n; j++ {
		if newOf[j] < 0 {
			continue
		}
		lo, hi := p.ColPtr[j], p.ColPtr[j+1]
		if nz != lo {
			copy(p.Rows[nz:nz+hi-lo], p.Rows[lo:hi])
		}
		nz += hi - lo
		p.C[w] = p.C[j]
		newOf[j] = int32(w)
		w++
		p.ColPtr[w] = nz
	}
	p.ColPtr = p.ColPtr[:w+1]
	p.C = p.C[:w]
	p.Rows = p.Rows[:nz]
	s.newOf = newOf
	s.renumbered = true
	s.stats.Compactions++
	if s.prevOK {
		k := 0
		for i, j := range s.prevSlots {
			if nj := newOf[j]; nj >= 0 {
				s.prevSlots[k], s.prevVals[k] = nj, s.prevVals[i]
				k++
			}
		}
		s.prevSlots, s.prevVals = s.prevSlots[:k], s.prevVals[:k]
	}
	if s.st != nil {
		s.st.dead = 0
	}
}

// remapState carries the warm state through the compaction just run: basis
// entries, posOf, the Devex reference weights and the reduced-cost cache
// with its dirty queue move with their variables through newOf, and the
// slack block moves down behind the surviving columns. The row mirror, the
// candidate index and the solution buffer are rebuilt on next use.
func (s *Solver) remapState() {
	st := s.st
	m := st.m
	oldN, newN := st.n, s.prob.NumCols()
	newOf := s.newOf
	for i, v := range st.basis {
		if v < oldN {
			st.basis[i] = int(newOf[v]) // ≥ 0: tombstones are never basic
		} else {
			st.basis[i] = newN + (v - oldN)
		}
	}
	st.posOf = st.posOf[:newN+m]
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i, v := range st.basis {
		st.posOf[v] = i
	}
	if len(st.weights) == oldN+m {
		st.weights = compactSlots(st.weights, newOf, oldN, newN, m)
	}
	if st.redOK {
		st.redC = compactSlots(st.redC, newOf, oldN, newN, m)
		dirty := st.redDirty[:0]
		for _, j := range st.redDirty {
			if nj := newOf[j]; nj >= 0 {
				dirty = append(dirty, nj)
			}
		}
		st.redDirty = dirty
	}
	st.n = newN
	st.aRowsOK = false
	st.idxOK = false
	st.xSetOK = false
}

// compactSlots moves a per-variable array through a compaction in place:
// surviving structural entries to their new slots (newOf ascends with
// newOf[j] ≤ j, so a forward pass never overwrites an unread entry), then
// the m slack entries down behind them.
func compactSlots[T any](a []T, newOf []int32, oldN, newN, m int) []T {
	for j := 0; j < oldN; j++ {
		if nj := newOf[j]; nj >= 0 {
			a[nj] = a[j]
		}
	}
	copy(a[newN:], a[oldN:oldN+m])
	return a[:newN+m]
}
