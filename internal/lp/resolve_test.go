package lp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// cloneProblem deep-copies a problem (reference semantics for the tests).
// A test that reads a problem after handing it to Solver.Solve, which adopts
// it and edits it in place on every Resolve, hands the solver a clone.
func cloneProblem(p *Problem) *Problem {
	return &Problem{
		NumRows: p.NumRows,
		B:       append([]float64(nil), p.B...),
		C:       append([]float64(nil), p.C...),
		ColPtr:  append([]int(nil), p.ColPtr...),
		Rows:    append([]int32(nil), p.Rows...),
	}
}

// addColumn32 is AddColumn for int32 row indices (CSC-to-CSC copies).
func (p *Problem) addColumn32(c float64, rows []int32) {
	if len(p.ColPtr) == 0 {
		p.ColPtr = append(p.ColPtr, 0)
	}
	p.Rows = append(p.Rows, rows...)
	p.ColPtr = append(p.ColPtr, len(p.Rows))
	p.C = append(p.C, c)
}

// Empty reports whether the delta changes nothing.
func (d *ProblemDelta) Empty() bool {
	return len(d.SetB) == 0 && len(d.SetC) == 0 && len(d.RemoveCols) == 0 && len(d.AddCols) == 0
}

// applyDeltaRef applies d to p by independent brute force under the slot
// rule — a removed column keeps its slot and rows at cost 0, added columns
// are appended — the reference the Solver's in-place delta application is
// checked against.
func applyDeltaRef(p *Problem, d ProblemDelta) *Problem {
	out := cloneProblem(p)
	for _, bc := range d.SetB {
		out.B[bc.Row] = bc.B
	}
	for _, oc := range d.SetC {
		out.C[oc.Col] = oc.C
	}
	for _, j := range d.RemoveCols {
		out.C[j] = 0
	}
	for k := range d.AddCols {
		out.AddColumn(d.AddC[k], d.AddCols[k].Rows)
	}
	return out
}

// liveMask returns which slots of the solver's problem are live.
func liveMask(s *Solver) []bool {
	live := make([]bool, s.Problem().NumCols())
	for j := range live {
		live[j] = s.Live(j)
	}
	return live
}

// liveSlots lists the live slots of the solver's problem, ascending.
func liveSlots(s *Solver) []int {
	var out []int
	for j, ok := range liveMask(s) {
		if ok {
			out = append(out, j)
		}
	}
	return out
}

// resolveRef runs s.Resolve(d) and requires the slot rule of its delta
// application. ref is applyDeltaRef of the problem before the call. Without
// a compaction the solver's problem must equal ref, and its tombstones must
// be exactly the earlier ones plus d's removals, so every survivor kept its
// slot and column. After one, Renumbering must drop exactly those and
// number the rest in order, and the problem must equal ref without them.
// It returns the solution and the reference in the solver's numbering.
func resolveRef(t *testing.T, label string, s *Solver, d ProblemDelta) (*Solution, *Problem, error) {
	t.Helper()
	ref := applyDeltaRef(s.Problem(), d)
	dead := liveMask(s)
	for j := range dead {
		dead[j] = !dead[j]
	}
	for _, j := range d.RemoveCols {
		dead[j] = true
	}
	for range d.AddCols {
		dead = append(dead, false)
	}
	sol, err := s.Resolve(d)
	if err != nil {
		return sol, ref, err
	}
	if r := s.Renumbering(); r != nil {
		if len(r) != ref.NumCols() {
			t.Fatalf("%s: renumbering covers %d slots, want %d", label, len(r), ref.NumCols())
		}
		want := &Problem{NumRows: ref.NumRows, B: ref.B, ColPtr: []int{0}}
		for j := range r {
			if (r[j] < 0) != dead[j] || (r[j] >= 0 && int(r[j]) != want.NumCols()) {
				t.Fatalf("%s: renumbering sends slot %d (tombstone: %v) to %d with %d kept before it", label, j, dead[j], r[j], want.NumCols())
			}
			if r[j] >= 0 {
				want.addColumn32(ref.C[j], ref.Col(j))
			}
		}
		ref = want
		dead = make([]bool, ref.NumCols())
	}
	got := s.Problem()
	if !slices.Equal(got.B, ref.B) || !slices.Equal(got.C, ref.C) ||
		!slices.Equal(got.Rows, ref.Rows) || !slices.Equal(got.ColPtr, ref.ColPtr) {
		t.Fatalf("%s: in-place delta application diverged from reference", label)
	}
	for j, isDead := range dead {
		if s.Live(j) == isDead {
			t.Fatalf("%s: slot %d live=%v, want tombstone=%v", label, j, s.Live(j), isDead)
		}
	}
	if s.LiveColumns() != ref.NumCols()-countTrue(dead) {
		t.Fatalf("%s: %d live columns, want %d", label, s.LiveColumns(), ref.NumCols()-countTrue(dead))
	}
	return sol, ref, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// requireResolveMatchesCold applies d through the persistent solver and
// cross-checks against a cold solve of the independently mutated problem:
// same problem data, certified optimality on both, and matching objectives.
func requireResolveMatchesCold(t *testing.T, label string, s *Solver, d ProblemDelta, tol float64) (*Solution, *Solution) {
	t.Helper()
	warm, ref, err := resolveRef(t, label, s, d)
	if err != nil {
		t.Fatalf("%s: Resolve: %v", label, err)
	}
	cold, err := SolveConfig(ref, Revised{tuning: tuning{noPerturb: s.cfg.tuning.noPerturb, pricing: s.cfg.tuning.pricing}})
	if err != nil {
		t.Fatalf("%s: cold solve: %v", label, err)
	}
	if math.Abs(warm.Objective-cold.Objective) > tol*(1+math.Abs(cold.Objective)) {
		t.Fatalf("%s: warm objective %v vs cold %v (tol %v)", label, warm.Objective, cold.Objective, tol)
	}
	if err := Verify(ref, warm, 1e-6); err != nil {
		t.Fatalf("%s: warm solution fails certification: %v", label, err)
	}
	if err := Verify(ref, cold, 1e-6); err != nil {
		t.Fatalf("%s: cold solution fails certification: %v", label, err)
	}
	return warm, cold
}

// resolveTol is the warm-vs-cold objective tolerance: both paths solve the
// identically perturbed problem to proven optimality, but may stop at
// different optimal bases of a dual-degenerate optimum, so the objectives
// agree to round-off, not necessarily to the last bit.
const resolveTol = 1e-9

func TestSolverColdMatchesRevised(t *testing.T) {
	rng := xrand.New(91)
	for trial := 0; trial < 10; trial++ {
		p := randomPacking(rng, 5+rng.Intn(30), 3+rng.Intn(10), 5)
		s := NewSolver(Revised{})
		got, err := s.Solve(cloneProblem(p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := SolveConfig(p, Revised{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// identical code path and start basis: bit-identical
		if got.Objective != want.Objective || got.Iterations != want.Iterations ||
			!reflect.DeepEqual(got.X, want.X) || !reflect.DeepEqual(got.Y, want.Y) {
			t.Fatalf("trial %d: pooled cold solve differs from stateless Revised", trial)
		}
		s.Release()
	}
}

// TestSolverAdoptsProblem pins Solve's ownership transfer: the Solver keeps
// the problem it is given, not a copy, and Resolve edits that problem in
// place.
func TestSolverAdoptsProblem(t *testing.T) {
	p := randomPacking(xrand.New(5), 20, 6, 4)
	s := NewSolver(Revised{})
	defer s.Release()
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if s.Problem() != p {
		t.Fatal("Solve installed a copy of the problem, not the problem itself")
	}
	n := p.NumCols()
	d := ProblemDelta{
		SetB:       []BoundChange{{Row: 21, B: p.B[21] + 3}},
		RemoveCols: []int{0},
		AddCols:    []Column{{Rows: []int{2, 23}}},
		AddC:       []float64{0.5},
	}
	if _, _, err := resolveRef(t, "adopted", s, d); err != nil {
		t.Fatal(err)
	}
	if s.Problem() != p {
		t.Fatal("Resolve replaced the adopted problem")
	}
	if s.LiveColumns() != n {
		t.Fatal("Resolve did not apply the delta to the adopted problem in place")
	}
}

func TestResolveBoundChanges(t *testing.T) {
	rng := xrand.New(17)
	p := randomPacking(rng, 40, 12, 5)
	s := NewSolver(Revised{})
	if _, err := s.Solve(cloneProblem(p)); err != nil {
		t.Fatal(err)
	}
	// grow some capacities (keeps the old basis feasible: ideal warm case)
	var d ProblemDelta
	for i := 40; i < 52; i += 3 {
		d.SetB = append(d.SetB, BoundChange{Row: i, B: p.B[i] + 2})
	}
	requireResolveMatchesCold(t, "grow-bounds", s, d, resolveTol)
	if s.Stats().WarmSolves == 0 {
		t.Errorf("bound growth did not take the warm path: %+v", s.Stats())
	}

	// shrink capacities — may warm-solve or fall back, must stay correct
	d = ProblemDelta{}
	for i := 40; i < 52; i += 2 {
		d.SetB = append(d.SetB, BoundChange{Row: i, B: math.Max(0, p.B[i]-1)})
	}
	requireResolveMatchesCold(t, "shrink-bounds", s, d, resolveTol)
	s.Release()
}

func TestResolveColumnChurn(t *testing.T) {
	rng := xrand.New(29)
	p := randomPacking(rng, 50, 15, 5)
	s := NewSolver(Revised{})
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Remove a mix of basic (x > 0) and nonbasic columns, add fresh ones.
	var d ProblemDelta
	for j := 0; j < len(sol.X) && len(d.RemoveCols) < 8; j++ {
		if sol.X[j] > 0.5 {
			d.RemoveCols = append(d.RemoveCols, j)
		}
	}
	for j := 1; j < len(sol.X) && len(d.RemoveCols) < 12; j += 7 {
		if sol.X[j] <= 0.5 {
			d.RemoveCols = append(d.RemoveCols, j)
		}
	}
	for k := 0; k < 6; k++ {
		grp := rng.Intn(50)
		ev := 50 + rng.Intn(15)
		d.AddCols = append(d.AddCols, Column{Rows: []int{grp, ev}})
		d.AddC = append(d.AddC, rng.Float64())
	}
	requireResolveMatchesCold(t, "column-churn", s, d, resolveTol)
	if s.Stats().WarmSolves == 0 {
		t.Logf("column churn fell back to cold: %+v (correct, but unexpected)", s.Stats())
	}

	// chained deltas keep working (warm-on-warm)
	for round := 0; round < 5; round++ {
		live := liveSlots(s)
		d = ProblemDelta{RemoveCols: []int{live[rng.Intn(len(live))]}}
		grp := rng.Intn(50)
		d.AddCols = []Column{{Rows: []int{grp, 50 + rng.Intn(15)}}}
		d.AddC = []float64{rng.Float64()}
		requireResolveMatchesCold(t, "chained", s, d, resolveTol)
	}
	s.Release()
}

func TestResolveObjectiveChanges(t *testing.T) {
	rng := xrand.New(43)
	p := randomPacking(rng, 30, 10, 4)
	s := NewSolver(Revised{})
	if _, err := s.Solve(cloneProblem(p)); err != nil {
		t.Fatal(err)
	}
	var d ProblemDelta
	for j := 0; j < p.NumCols(); j += 5 {
		d.SetC = append(d.SetC, ObjChange{Col: j, C: rng.Float64() * 2})
	}
	requireResolveMatchesCold(t, "objective", s, d, resolveTol)
	if s.Stats().WarmSolves == 0 {
		t.Errorf("objective-only delta did not take the warm path: %+v", s.Stats())
	}
	s.Release()
}

// TestResolveDualRepairOnShrink engineers a basis that turns primal
// infeasible under the new bounds: the dual-simplex repair must fix it on
// the warm path (no cold fallback) and land on the new optimum.
func TestResolveDualRepairOnShrink(t *testing.T) {
	// max x s.t. x ≤ 2 (row 0), x ≤ 3 (row 1): optimum x = 2, slack1 = 1.
	p := NewProblem(2, []float64{2, 3}, []float64{1}, []Column{
		{Rows: []int{0, 1}},
	})
	s := NewSolver(Revised{tuning: tuning{noPerturb: true}})
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	// b1 = 1 < current x = 2 ⇒ the old basis gives slack1 = −1: primal
	// infeasible until the repair pivots.
	d := ProblemDelta{SetB: []BoundChange{{Row: 1, B: 1}}}
	sol, err := s.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-9 {
		t.Errorf("objective %v, want 1", sol.Objective)
	}
	if s.Stats().WarmSolves != 1 || s.Stats().FallbackInfeasible != 0 {
		t.Errorf("expected a repaired warm solve, stats %+v", s.Stats())
	}
}

// TestResolveAfterFailedSolveGoesCold pins that a solve that did not end
// Optimal never seeds a warm start.
func TestResolveAfterFailedSolveGoesCold(t *testing.T) {
	rng := xrand.New(97)
	p := randomPacking(rng, 20, 8, 4)
	s := NewSolver(Revised{tuning: tuning{maxIter: 1}})
	if _, err := s.Solve(p); err != ErrIterLimit {
		t.Fatalf("err = %v, want ErrIterLimit", err)
	}
	s.cfg.tuning.maxIter = 0 // restore the default budget
	sol, err := s.Resolve(ProblemDelta{SetC: []ObjChange{{Col: 0, C: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.Problem(), sol, 1e-6); err != nil {
		t.Error(err)
	}
	if s.Stats().WarmSolves != 0 || s.Stats().ColdSolves != 2 {
		t.Errorf("expected cold-only solves, stats %+v", s.Stats())
	}
	s.Release()
}

func TestResolveValidation(t *testing.T) {
	s := NewSolver(Revised{})
	if _, err := s.Resolve(ProblemDelta{}); err != ErrNoProblem {
		t.Errorf("Resolve before Solve: err = %v, want ErrNoProblem", err)
	}
	p := NewProblem(1, []float64{2}, []float64{1},
		[]Column{{Rows: []int{0}}})
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	bad := []ProblemDelta{
		{SetB: []BoundChange{{Row: 5, B: 1}}},
		{SetB: []BoundChange{{Row: 0, B: -1}}},
		{SetB: []BoundChange{{Row: 0, B: math.NaN()}}},
		{SetC: []ObjChange{{Col: 3, C: 1}}},
		{SetC: []ObjChange{{Col: 0, C: math.Inf(1)}}},
		{RemoveCols: []int{9}},
		{AddCols: []Column{{Rows: []int{0}}}}, // missing AddC
		{AddCols: []Column{{Rows: []int{7}}}, AddC: []float64{1}},
	}
	// A column listing a row twice is rejected with the typed error, naming
	// the AddCols index and the row, after a well-formed column.
	dup := ProblemDelta{AddCols: []Column{{Rows: []int{0}}, {Rows: []int{0, 0}}}, AddC: []float64{1, 1}}
	var de *DuplicateRowError
	if _, err := s.Resolve(dup); !errors.As(err, &de) || de.Col != 1 || de.Row != 0 {
		t.Errorf("duplicate-row delta: err = %v, want *DuplicateRowError{Col: 1, Row: 0}", err)
	}
	for i, d := range bad {
		if _, err := s.Resolve(d); err == nil {
			t.Errorf("bad delta %d accepted", i)
		}
	}
	// the problem must be untouched by rejected deltas
	sol, err := s.Resolve(ProblemDelta{})
	if err != nil || math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("after rejected deltas: sol=%+v err=%v", sol, err)
	}
	s.Release()
	// Release resets: Solve works again
	if _, err := s.Solve(p); err != nil {
		t.Errorf("Solve after Release: %v", err)
	}

	// A slot removed by an earlier delta is a tombstone: naming it again in
	// RemoveCols or SetC is rejected with the typed error, while duplicates
	// within one delta are still tolerated.
	var cols []Column
	var c []float64
	for k := 0; k < 16; k++ {
		cols = append(cols, Column{Rows: []int{k % 4}})
		c = append(c, float64(1+k%3))
	}
	ts := NewSolver(Revised{})
	defer ts.Release()
	if _, err := ts.Solve(NewProblem(4, []float64{1, 1, 1, 1}, c, cols)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Resolve(ProblemDelta{RemoveCols: []int{3, 3}, SetC: []ObjChange{{Col: 3, C: 5}}}); err != nil {
		t.Fatalf("duplicate removal within one delta: %v", err)
	}
	if ts.Live(3) || ts.Renumbering() != nil {
		t.Fatal("a warm removal of 1 of 16 columns did not leave a tombstone in its slot")
	}
	for i, d := range []ProblemDelta{
		{RemoveCols: []int{3}},
		{SetC: []ObjChange{{Col: 3, C: 1}}},
		{RemoveCols: []int{5, 3}},
		{SetB: []BoundChange{{Row: 0, B: 2}}, SetC: []ObjChange{{Col: 4, C: 1}, {Col: 3, C: 1}}},
	} {
		before := cloneProblem(ts.Problem())
		var te *TombstoneError
		if _, err := ts.Resolve(d); !errors.As(err, &te) || te.Col != 3 {
			t.Errorf("tombstone delta %d: err = %v, want *TombstoneError{Col: 3}", i, err)
		}
		if !reflect.DeepEqual(cloneProblem(ts.Problem()), before) || ts.Live(3) || !ts.Live(5) {
			t.Errorf("tombstone delta %d: the rejected delta changed the problem", i)
		}
	}
}

// TestResolveWorkerInvariance pins that the warm path, like the cold one, is
// bit-identical for every worker count (forced Devex), both at the default
// parallel threshold — which keeps this small LP on one goroutine — and with
// parallelThreshold 1 forcing the pooled pricing passes to really run.
func TestResolveWorkerInvariance(t *testing.T) {
	rng := xrand.New(61)
	p := randomPacking(rng, 200, 40, 6)
	var d ProblemDelta
	for j := 0; j < 30; j += 3 {
		d.RemoveCols = append(d.RemoveCols, j)
	}
	for k := 0; k < 10; k++ {
		d.AddCols = append(d.AddCols, Column{
			Rows: []int{rng.Intn(200), 200 + rng.Intn(40)}})
		d.AddC = append(d.AddC, rng.Float64())
	}
	d.SetB = append(d.SetB, BoundChange{Row: 205, B: p.B[205] + 1})
	// shrink a few capacities so dual repair really pivots
	d.SetB = append(d.SetB,
		BoundChange{Row: 210, B: 0},
		BoundChange{Row: 215, B: math.Max(0, p.B[215]-2)})

	suite := func(parallelThreshold int) func(t *testing.T) {
		return func(t *testing.T) {
			run := func(workers int) *Solution {
				s := NewSolver(Revised{Workers: workers, tuning: tuning{
					pricing: pricingDevex, parallelThreshold: parallelThreshold,
				}})
				if _, err := s.Solve(cloneProblem(p)); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sol, err := s.Resolve(d)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				s.Release()
				return sol
			}
			ref := run(1)
			for _, workers := range []int{2, 4, 7} {
				got := run(workers)
				if got.Objective != ref.Objective || got.Iterations != ref.Iterations ||
					!reflect.DeepEqual(got.X, ref.X) || !reflect.DeepEqual(got.Y, ref.Y) {
					t.Fatalf("workers=%d: warm resolve differs from workers=1", workers)
				}
			}
		}
	}
	t.Run("default_thresholds", suite(0))
	t.Run("forced_parallel_kernels", suite(1))
}

// TestResolveRefactorEveryOne drives a warm-resolve chain at the degenerate
// refactorization cadence — a fresh LU (and a fresh steepest-edge reference
// framework) after every single pivot — so the hypersparse row graphs'
// rebuild-after-factorize path and the repair's mid-loop reset run
// constantly. Correctness must be unaffected.
func TestResolveRefactorEveryOne(t *testing.T) {
	rng := xrand.New(53)
	p := randomPacking(rng, 60, 15, 5)
	s := NewSolver(Revised{tuning: tuning{refactorEvery: 1, pricing: pricingDevex}})
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		live := liveSlots(s)
		d := ProblemDelta{
			SetB:       []BoundChange{{Row: 60 + rng.Intn(15), B: float64(rng.Intn(4))}},
			RemoveCols: []int{live[rng.Intn(len(live))]},
		}
		d.AddCols = []Column{{Rows: []int{rng.Intn(60), 60 + rng.Intn(15)}}}
		d.AddC = []float64{rng.Float64()}
		requireResolveMatchesCold(t, "refactor-every-1", s, d, resolveTol)
	}
	s.Release()
}

// requireRedCacheExact syncs the solver's reduced-cost cache to the current
// duals and requires every entry to equal a fresh reducedCost bit for bit. A
// stale entry only steers pricing to another optimal vertex, which no
// objective comparison sees.
func requireRedCacheExact(t *testing.T, step int, s *Solver) {
	t.Helper()
	st := s.st
	if st == nil || st.p == nil {
		return
	}
	st.syncRed()
	for j := 0; j < st.n+st.m; j++ {
		if got, want := st.redC[j], st.reducedCost(j); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: cached reduced cost of variable %d is %v, want %v", step, j, got, want)
		}
	}
}

// TestRedDirtyQueueBounded re-solves a stream of SetC deltas that each end in
// the fast finish, so the reduced-cost cache is never synced between them.
// The dirty queue must stay within n + m entries, and the cache must still
// be exact afterwards.
func TestRedDirtyQueueBounded(t *testing.T) {
	p := randomPacking(xrand.New(61), 40, 10, 4)
	s := NewSolver(Revised{})
	defer s.Release()
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	nonbasic := func() int {
		for j := 0; j < s.st.n; j++ {
			if s.st.posOf[j] < 0 {
				return j
			}
		}
		t.Fatal("no nonbasic structural column")
		return -1
	}
	// An improving objective change pivots, which builds the cache.
	if _, err := s.Resolve(ProblemDelta{SetC: []ObjChange{{Col: nonbasic(), C: 10}}}); err != nil {
		t.Fatal(err)
	}
	if !s.st.redOK {
		t.Fatal("a pivoting warm re-solve left the reduced-cost cache unbuilt")
	}
	j := nonbasic()
	limit := s.st.n + s.st.m
	for step := 0; step < 3*limit; step++ {
		before := s.Stats().FastFinishes
		if _, err := s.Resolve(ProblemDelta{SetC: []ObjChange{{Col: j, C: 0}}}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.Stats().FastFinishes != before+1 {
			t.Fatalf("step %d: a non-improving objective change did not fast-finish", step)
		}
		if got := len(s.st.redDirty); got > limit {
			t.Fatalf("step %d: %d queued columns, more than n + m = %d", step, got, limit)
		}
	}
	requireRedCacheExact(t, 3*limit, s)
}

// requireTombstonesInert requires every tombstone of the solver's problem
// to be nonbasic with x = 0 in sol, its last solution.
func requireTombstonesInert(t *testing.T, step int, s *Solver, sol *Solution) {
	t.Helper()
	for j := range sol.X {
		if s.Live(j) {
			continue
		}
		if s.st.posOf[j] != deadSlot || sol.X[j] != 0 {
			t.Fatalf("step %d: tombstone %d has basis position %d and x = %v", step, j, s.st.posOf[j], sol.X[j])
		}
	}
}

// fuzzTombstoneSeed is a FuzzResolve seed whose 15 steps remove columns
// often enough to run compactions, and fall back to a cold solve once.
const fuzzTombstoneSeed = 8810

// fuzzWindowSeed is a FuzzResolve seed that draws knob 4, a pricing window
// of 1 to 64 variables, and whose warm pivots price while tombstones are
// present, with the window shorter than the pass and a tombstone inside it.
const fuzzWindowSeed = 216

// fuzzColdCacheSeed is a FuzzResolve seed whose cold solves read the
// reduced-cost cache. It was chosen because its cold and its warm solves
// also leave the cache stale behind plain scans and then resume it, so the
// catch-up of many missed dual steps runs under the pricing check.
const fuzzColdCacheSeed = 943

// FuzzResolve mutates a random packing LP through a persistent solver —
// removing and adding columns, shrinking and growing bounds, rescaling
// objectives — and asserts after every step that Resolve applied the delta
// under the slot rule (resolveRef: survivors keep their slot and column
// until a compaction renumbers them), that its optimum matches a cold solve
// of the same mutated problem and certifies via Verify, that every
// tombstone is nonbasic at x = 0, and that the reduced-cost cache holds
// exactly the reduced costs of the current duals. Some steps instead send a
// delta whose column lists a row twice, which must be rejected with a
// *DuplicateRowError and leave the solver usable.
func FuzzResolve(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(7))
	f.Add(int64(-77), uint8(12))
	f.Add(int64(207), uint8(4))                // its first delta lists a row twice (case 4)
	f.Add(int64(fuzzTombstoneSeed), uint8(15)) // removal-heavy: compactions and a cold fallback
	// knob 2 with a refactorization every 3 and 2 pivots: updated duals
	// across many refreshes and recertifications, warm and cold
	f.Add(int64(15), uint8(15))
	f.Add(int64(368), uint8(15))
	f.Add(int64(fuzzWindowSeed), uint8(15))    // tiny window across tombstones
	f.Add(int64(fuzzColdCacheSeed), uint8(15)) // cold solves through the cache
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) { fuzzResolveSteps(t, seed, steps) })
}

// TestFuzzResolveTombstoneSeed requires fuzzTombstoneSeed to do what its
// comment says: at least two compactions and a warm Resolve that falls back
// to a cold solve.
func TestFuzzResolveTombstoneSeed(t *testing.T) {
	st, _ := fuzzResolveSteps(t, fuzzTombstoneSeed, 15)
	fallbacks := st.FallbackSingular + st.FallbackInfeasible + st.FallbackError
	if st.Compactions < 2 || fallbacks < 1 {
		t.Errorf("seed %d ran %d compactions and %d cold fallbacks, want ≥ 2 and ≥ 1", fuzzTombstoneSeed, st.Compactions, fallbacks)
	}
}

// TestFuzzResolveWindowSeed requires fuzzWindowSeed to do what its comment
// says: cached pricing calls whose window ends past a tombstone, each
// checked against the plain scan (fuzzResolveSteps fails on a mismatch).
// Only knob 4 sets a window below the few dozen variables of these LPs.
func TestFuzzResolveWindowSeed(t *testing.T) {
	_, rep := fuzzResolveSteps(t, fuzzWindowSeed, 15)
	if rep.TombstoneWindows == 0 {
		t.Errorf("seed %d: none of %d cached pricing calls had a tombstone inside a window shorter than the pass", fuzzWindowSeed, rep.CachedCalls)
	}
	t.Logf("seed %d: %d cached pricing calls, %d with a tombstone in the window, %d probes", fuzzWindowSeed, rep.CachedCalls, rep.TombstoneWindows, rep.Probes)
}

// TestFuzzResolveColdCacheSeed requires fuzzColdCacheSeed to do what its
// comment says: cold solves whose pricing calls the reduced-cost cache
// serves, each checked against the plain scan.
func TestFuzzResolveColdCacheSeed(t *testing.T) {
	_, rep := fuzzResolveSteps(t, fuzzColdCacheSeed, 15)
	if rep.ColdCachedCalls == 0 {
		t.Errorf("seed %d: none of %d pricing calls was a cold solve's through the cache", fuzzColdCacheSeed, rep.Calls)
	}
	t.Logf("seed %d: %d pricing calls, %d cached, %d of them cold", fuzzColdCacheSeed, rep.Calls, rep.CachedCalls, rep.ColdCachedCalls)
}

// fuzzResolveSteps is FuzzResolve's body. It returns the solver's stats and
// what the pricing check saw: every partial Dantzig pricing call of every
// solve it runs, warm or cold, must return the plain scan's (q, next)
// (CheckPricing), with random probes beside each, and every BTRAN skipped
// on carried exact duals must match a fresh one bit for bit
// (CheckCarriedDuals).
func fuzzResolveSteps(t *testing.T, seed int64, steps uint8) (SolverStats, PricingReport) {
	done := CheckPricing(xrand.New(seed ^ 0x5eed))
	defer done() // uninstalls the checks when the run fails
	doneDuals := CheckCarriedDuals()
	defer doneDuals()
	st := fuzzResolveRun(t, seed, steps)
	rep := done()
	if rep.Err != nil {
		t.Fatalf("pricing: %v", rep.Err)
	}
	if _, err := doneDuals(); err != nil {
		t.Fatalf("carried duals: %v", err)
	}
	return st, rep
}

// fuzzResolveRun runs fuzzResolveSteps' stream of deltas.
func fuzzResolveRun(t *testing.T, seed int64, steps uint8) SolverStats {
	rng := xrand.New(seed)
	p := randomPacking(rng, 3+rng.Intn(25), 2+rng.Intn(8), 4)
	// Rotate the solver knobs through the fuzzed space too: forced Devex
	// pricing, per-pivot refactorization, the pooled kernels, partial
	// Dantzig with a tiny window, and the warm-resolve tuning surface
	// (repair budget, hypersparse threshold) — the optimum must be
	// knob-invariant.
	var cfg Revised
	knob := rng.Intn(7)
	switch knob {
	case 1:
		cfg.tuning.pricing = pricingDevex
	case 3:
		cfg.Workers = 2
		cfg.tuning.parallelThreshold = 1
	case 4:
		cfg.tuning.pricing = pricingDantzig
		cfg.tuning.pricingWindow = 1 + rng.Intn(64)
	case 5:
		cfg.tuning.repairBudget = 1 + rng.Intn(32)
	case 6:
		cfg.tuning.hypersparseThreshold = rng.Float64()
	}
	// Three draws follow whatever the knob drew, so every seed,
	// fuzzTombstoneSeed included, keeps the problem and delta stream
	// recorded for it. The first sets knob 2's refactorization cadence,
	// 1 to 8 pivots: per-pivot refactorization, or short eta files across
	// which the pivot loop's updated duals meet several refreshes and the
	// optimality recertification.
	every := 1 + rng.Intn(8)
	rng.Intn(8)
	rng.Float64()
	if knob == 2 {
		cfg.tuning.refactorEvery = every
	}
	s := NewSolver(cfg)
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	g := 0 // group count unknown here; rows 0..? — recover from B
	for i, b := range s.Problem().B {
		if b != 1 {
			break
		}
		g = i + 1
	}
	m := s.Problem().NumRows
	for step := 0; step < int(steps%16); step++ {
		cur := s.Problem()
		live := liveSlots(s)
		var d ProblemDelta
		switch rng.Intn(5) {
		case 0: // shrink/grow a capacity row
			if m > g {
				row := g + rng.Intn(m-g)
				nb := float64(rng.Intn(5))
				d.SetB = append(d.SetB, BoundChange{Row: row, B: nb})
			}
		case 1: // remove up to 3 random live columns
			for k := 0; k < 1+rng.Intn(3) && len(live) > 1; k++ {
				d.RemoveCols = append(d.RemoveCols, live[rng.Intn(len(live))])
			}
		case 2: // add up to 3 random columns
			for k := 0; k < 1+rng.Intn(3); k++ {
				rows := []int{}
				if g > 0 {
					rows = append(rows, rng.Intn(g))
				}
				if m > g {
					rows = append(rows, g+rng.Intn(m-g))
				}
				d.AddCols = append(d.AddCols, Column{Rows: rows})
				d.AddC = append(d.AddC, rng.Float64())
			}
		case 3: // rescale an objective coefficient
			if len(live) > 0 {
				d.SetC = append(d.SetC, ObjChange{Col: live[rng.Intn(len(live))], C: rng.Float64() * 3})
			}
		case 4: // a column listing a row twice, behind a bound change
			// Rejected whole with the typed error: the problem stays
			// as it was and the solver stays usable for the next step.
			r := rng.Intn(m)
			bad := ProblemDelta{
				SetB:    []BoundChange{{Row: r, B: cur.B[r] + 1}},
				AddCols: []Column{{Rows: []int{r, r}}},
				AddC:    []float64{rng.Float64()},
			}
			before := cloneProblem(cur)
			var de *DuplicateRowError
			if _, err := s.Resolve(bad); !errors.As(err, &de) || de.Col != 0 || de.Row != r {
				t.Fatalf("step %d: duplicate-row delta: err = %v", step, err)
			}
			if !reflect.DeepEqual(cloneProblem(s.Problem()), before) {
				t.Fatalf("step %d: rejected delta changed the problem", step)
			}
			continue
		}
		if d.Empty() {
			continue
		}
		warm, ref, err := resolveRef(t, fmt.Sprintf("step %d", step), s, d)
		if err != nil {
			t.Fatalf("step %d: Resolve: %v", step, err)
		}
		requireTombstonesInert(t, step, s, warm)
		requireRedCacheExact(t, step, s)
		cold, err := SolveConfig(ref, Revised{})
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-8*(1+math.Abs(cold.Objective)) {
			t.Fatalf("step %d: warm %v vs cold %v", step, warm.Objective, cold.Objective)
		}
		if err := Verify(ref, warm, 1e-6); err != nil {
			t.Fatalf("step %d: warm certificate: %v", step, err)
		}
	}
	return s.Stats()
}

// TestResolveChangedColumns verifies the changed-column tracker against
// brute force: after each warm Resolve, a surviving column is reported
// changed if and only if its primal value differs from the previous
// solution's in the same slot (or in the slot a compaction moved it to),
// every appended column is reported, no tombstone is, and the list ascends.
func TestResolveChangedColumns(t *testing.T) {
	rng := xrand.New(321)
	for trial := 0; trial < 20; trial++ {
		p := randomPacking(rng, 8+rng.Intn(20), 4+rng.Intn(8), 4)
		s := NewSolver(Revised{})
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, all := s.ChangedColumns(); !all {
			t.Fatalf("trial %d: cold solve must report all-changed", trial)
		}
		for step := 0; step < 4; step++ {
			n := s.Problem().NumCols()
			prev := append([]float64(nil), sol.X...)
			wasLive := liveMask(s)
			live := liveSlots(s)
			var d ProblemDelta
			removed := make(map[int]bool)
			if rng.Bool(0.5) {
				for k := 0; k < 1+rng.Intn(3); k++ {
					j := live[rng.Intn(len(live))]
					d.RemoveCols = append(d.RemoveCols, j)
					removed[j] = true
				}
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.SetB = append(d.SetB, BoundChange{Row: rng.Intn(s.Problem().NumRows), B: float64(rng.Intn(5))})
			}
			if rng.Bool(0.4) {
				d.AddCols = append(d.AddCols, Column{Rows: []int{rng.Intn(s.Problem().NumRows)}})
				d.AddC = append(d.AddC, rng.Float64())
			}
			sol, err = s.Resolve(d)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			cols, all := s.ChangedColumns()
			if all {
				continue // cold fallback: every column treated as changed
			}
			// A survivor keeps its slot; only a compaction moves it, and
			// Renumbering says where.
			r := s.Renumbering()
			slot := func(j int) int {
				if r == nil {
					return j
				}
				return int(r[j])
			}
			changed := make(map[int]bool, len(cols))
			for i, c := range cols {
				if i > 0 && c <= cols[i-1] {
					t.Fatalf("trial %d step %d: changed columns %v do not ascend", trial, step, cols)
				}
				changed[c] = true
			}
			for j := 0; j < n; j++ {
				nj := slot(j)
				if removed[j] || !wasLive[j] {
					if nj >= 0 && changed[nj] {
						t.Fatalf("trial %d step %d: tombstone %d reported changed", trial, step, j)
					}
					continue
				}
				if moved := prev[j] != sol.X[nj]; moved != changed[nj] {
					t.Fatalf("trial %d step %d: column %d->%d moved=%v, reported=%v",
						trial, step, j, nj, moved, changed[nj])
				}
			}
			for k := range d.AddCols {
				if nj := slot(n + k); !changed[nj] {
					t.Fatalf("trial %d step %d: appended column %d not reported changed", trial, step, nj)
				}
			}
		}
		s.Release()
	}
}
