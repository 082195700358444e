package lp

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// revisedSolve is SolveConfig under cfg, as a solver function.
func revisedSolve(cfg Revised) func(*Problem) (*Solution, error) {
	return func(p *Problem) (*Solution, error) { return SolveConfig(p, cfg) }
}

// solvers under test: the dense oracle and the revised simplex under
// several settings must agree on every problem.
func bothSolvers() map[string]func(*Problem) (*Solution, error) {
	return map[string]func(*Problem) (*Solution, error){
		"dense":   (&Dense{}).Solve,
		"revised": revisedSolve(Revised{}),
		// small refactor interval exercises the refactorization path hard
		"revised-refactor2": revisedSolve(Revised{tuning: tuning{refactorEvery: 2}}),
		// tiny pricing window exercises partial-pricing wraparound
		"revised-window1": revisedSolve(Revised{tuning: tuning{pricing: pricingDantzig, pricingWindow: 1}}),
		"revised-devex":   revisedSolve(Revised{tuning: tuning{pricing: pricingDevex}}),
		"revised-dantzig": revisedSolve(Revised{tuning: tuning{pricing: pricingDantzig}}),
	}
}

func solveBoth(t *testing.T, p *Problem, wantObj float64) {
	t.Helper()
	for name, solve := range bothSolvers() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		// Tolerance note: the revised solver's default anti-degeneracy RHS
		// perturbation shifts optima by O(perturbScale) relative; exactness
		// without perturbation is asserted separately in TestNoPerturbExact.
		if math.Abs(sol.Objective-wantObj) > 1e-5*(1+math.Abs(wantObj)) {
			t.Errorf("%s: objective %v, want %v", name, sol.Objective, wantObj)
		}
		if err := Verify(p, sol, 1e-6); err != nil {
			t.Errorf("%s: verification failed: %v", name, err)
		}
	}
}

// knownLP1 is max 3x + 2y s.t. x + y ≤ 4, x ≤ 3: optimum x=3, y=1, obj 11.
func knownLP1() *Problem {
	return NewProblem(2, []float64{4, 3}, []float64{3, 2}, []Column{
		{Rows: []int{0, 1}},
		{Rows: []int{0}},
	})
}

func TestNoPerturbExact(t *testing.T) {
	p := knownLP1()
	for _, pr := range []pricingRule{pricingDevex, pricingDantzig} {
		sol, err := SolveConfig(p, Revised{tuning: tuning{noPerturb: true, pricing: pr}})
		if err != nil {
			t.Fatalf("pricing %d: %v", pr, err)
		}
		if math.Abs(sol.Objective-11) > 1e-9 {
			t.Errorf("pricing %d: objective %v, want exactly 11", pr, sol.Objective)
		}
	}
}

func TestKnownLP1(t *testing.T) {
	solveBoth(t, knownLP1(), 11)
}

func TestKnownLP2Fractional(t *testing.T) {
	// The odd cycle: three columns, each crossing two of three unit rows.
	// max a + b + c s.t. a + c ≤ 1, a + b ≤ 1, b + c ≤ 1 → a=b=c=1/2, obj 3/2
	p := NewProblem(3, []float64{1, 1, 1}, []float64{1, 1, 1}, []Column{
		{Rows: []int{0, 1}},
		{Rows: []int{1, 2}},
		{Rows: []int{0, 2}},
	})
	solveBoth(t, p, 1.5)
}

func TestAssignmentLP(t *testing.T) {
	// 2 users × 2 events, user rows ≤ 1, event rows cap 1:
	// max .9 x00 + .1 x01 + .8 x10 + .7 x11
	// optimal integral: u0→e0, u1→e1 → 1.6
	// rows 0,1 users; 2,3 events
	p := NewProblem(4, []float64{1, 1, 1, 1}, []float64{0.9, 0.1, 0.8, 0.7}, []Column{
		{Rows: []int{0, 2}},
		{Rows: []int{0, 3}},
		{Rows: []int{1, 2}},
		{Rows: []int{1, 3}},
	})
	solveBoth(t, p, 1.6)
}

func TestZeroRHSDegenerate(t *testing.T) {
	// capacity-zero row forces x = 0 in spite of positive reward
	p := NewProblem(1, []float64{0}, []float64{5},
		[]Column{{Rows: []int{0}}})
	solveBoth(t, p, 0)
}

func TestAllNegativeObjective(t *testing.T) {
	p := NewProblem(1, []float64{5}, []float64{-1, -2}, []Column{
		{Rows: []int{0}},
		{Rows: []int{0}},
	})
	solveBoth(t, p, 0)
}

func TestUnbounded(t *testing.T) {
	// x has positive reward and no binding constraint coefficient
	p := NewProblem(1, []float64{1}, []float64{1}, []Column{{}})
	for name, solve := range bothSolvers() {
		_, err := solve(p)
		if err != ErrUnbounded {
			t.Errorf("%s: err = %v, want ErrUnbounded", name, err)
		}
	}
}

func TestEmptyProblems(t *testing.T) {
	// no columns
	p := &Problem{NumRows: 2, B: []float64{1, 1}}
	solveBoth(t, p, 0)
	// no rows, non-positive objective
	p2 := NewProblem(0, nil, []float64{-1}, []Column{{}})
	sol, err := SolveConfig(p2, Revised{})
	if err != nil || sol.Objective != 0 {
		t.Errorf("rowless LP: sol=%+v err=%v", sol, err)
	}
	sol, err = (&Dense{}).Solve(p2)
	if err != nil || sol.Objective != 0 {
		t.Errorf("rowless LP (dense): sol=%+v err=%v", sol, err)
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	one := []Column{{Rows: []int{0}}}
	cases := []*Problem{
		{NumRows: 1, C: []float64{1}, B: []float64{1}},  // objective without columns
		{NumRows: 1, B: []float64{1, 2}},                // wrong B length
		NewProblem(1, []float64{-1}, []float64{1}, one), // negative rhs
		NewProblem(1, []float64{1}, []float64{1},
			[]Column{{Rows: []int{5}}}), // row out of range
		{NumRows: 1, C: []float64{1}, B: []float64{1},
			ColPtr: []int{0, 2}, Rows: []int32{0}}, // ColPtr overruns storage
		{NumRows: 1, C: []float64{1, 1}, B: []float64{1},
			ColPtr: []int{0, 1, 0}, Rows: []int32{0}}, // ColPtr not monotone
		{NumRows: 1, B: []float64{1},
			Rows: []int32{0}}, // nonzeros without ColPtr
		NewProblem(1, []float64{1}, []float64{math.NaN()}, []Column{{}}), // NaN objective
	}
	// A column that lists a row twice has no 0/1 meaning: rejected with a
	// *DuplicateRowError naming the column and the row, wherever the repeat
	// sits in the column.
	dups := []struct {
		p        *Problem
		col, row int
	}{
		{NewProblem(2, []float64{1, 1}, []float64{1}, []Column{{Rows: []int{1, 1}}}), 0, 1},
		{NewProblem(3, []float64{1, 1, 1}, []float64{1, 1}, []Column{{Rows: []int{0, 2}}, {Rows: []int{0, 1, 2, 0}}}), 1, 0},
		{&Problem{NumRows: 2, C: []float64{1, 1}, B: []float64{1, 1},
			ColPtr: []int{0, 1, 3}, Rows: []int32{0, 1, 1}}, 1, 1},
	}
	for _, d := range dups {
		var de *DuplicateRowError
		if err := d.p.Check(); !errors.As(err, &de) || de.Col != d.col || de.Row != d.row {
			t.Errorf("duplicate row %d in column %d: Check err = %v", d.row, d.col, err)
		}
		cases = append(cases, d.p)
	}
	for i, p := range cases {
		if err := p.Check(); err == nil {
			t.Errorf("case %d: malformed problem accepted", i)
		}
		if _, err := SolveConfig(p, Revised{}); err == nil {
			t.Errorf("case %d: SolveConfig accepted malformed problem", i)
		}
	}
	// The same row in different columns is every packing LP's shape.
	if err := NewProblem(2, []float64{1, 1}, []float64{1, 1}, []Column{{Rows: []int{0, 1}}, {Rows: []int{0, 1}}}).Check(); err != nil {
		t.Errorf("row shared by two columns rejected: %v", err)
	}
}

func TestVerifyCatchesLies(t *testing.T) {
	p := NewProblem(1, []float64{2}, []float64{1},
		[]Column{{Rows: []int{0}}})
	sol, err := SolveConfig(p, Revised{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &Solution{Status: Optimal, X: []float64{5}, Y: sol.Y, Objective: 5}
	if err := Verify(p, bad, 1e-6); err == nil {
		t.Error("infeasible primal passed verification")
	}
	bad = &Solution{Status: Optimal, X: sol.X, Y: []float64{0}, Objective: sol.Objective}
	if err := Verify(p, bad, 1e-6); err == nil {
		t.Error("dual-infeasible solution passed verification")
	}
	bad = &Solution{Status: Optimal, X: []float64{1}, Y: []float64{1}, Objective: 1}
	if err := Verify(p, bad, 1e-6); err == nil {
		t.Error("suboptimal solution passed verification (duality gap)")
	}
}

// randomPacking builds a random packing LP in benchmark-LP shape: g groups
// ("users") of columns with ≤1 rows, plus k capacity rows ("events") hit by
// random subsets of columns.
func randomPacking(rng *xrand.RNG, g, k, colsPerGroup int) *Problem {
	m := g + k
	p := &Problem{NumRows: m, B: make([]float64, m)}
	for i := 0; i < g; i++ {
		p.B[i] = 1
	}
	for i := 0; i < k; i++ {
		p.B[g+i] = float64(1 + rng.Intn(4))
	}
	for grp := 0; grp < g; grp++ {
		nc := 1 + rng.Intn(colsPerGroup)
		for c := 0; c < nc; c++ {
			rows := []int{grp}
			picks := 1 + rng.Intn(3)
			used := map[int]bool{}
			for e := 0; e < picks; e++ {
				r := g + rng.Intn(k)
				if !used[r] {
					used[r] = true
					rows = append(rows, r)
				}
			}
			p.AddColumn(rng.Float64(), rows)
		}
	}
	return p
}

// The central cross-validation property: on random benchmark-shaped packing
// LPs, the dense oracle and the revised solver find the same optimum and
// both certify.
func TestDenseRevisedAgreeOnRandomPacking(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 40; trial++ {
		p := randomPacking(rng, 3+rng.Intn(20), 2+rng.Intn(10), 5)
		dsol, err := (&Dense{}).Solve(p)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		rsol, err := SolveConfig(p, Revised{tuning: tuning{refactorEvery: 8}})
		if err != nil {
			t.Fatalf("trial %d revised: %v", trial, err)
		}
		if math.Abs(dsol.Objective-rsol.Objective) > 5e-6*(1+math.Abs(dsol.Objective)) {
			t.Fatalf("trial %d: dense %v vs revised %v", trial, dsol.Objective, rsol.Objective)
		}
		if err := Verify(p, dsol, 1e-6); err != nil {
			t.Errorf("trial %d dense verify: %v", trial, err)
		}
		if err := Verify(p, rsol, 1e-6); err != nil {
			t.Errorf("trial %d revised verify: %v", trial, err)
		}
	}
}

// Random 0/1 patterns with fractional bounds, not in benchmark shape,
// exercise general pivoting.
func TestDenseRevisedAgreeOnRandomPatterns(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(12)
		n := 1 + rng.Intn(20)
		p := &Problem{NumRows: m, B: make([]float64, m)}
		for i := range p.B {
			p.B[i] = rng.Float64() * 10
		}
		for j := 0; j < n; j++ {
			var rows []int
			for r := 0; r < m; r++ {
				if rng.Bool(0.5) {
					rows = append(rows, r)
				}
			}
			if len(rows) == 0 { // ensure boundedness
				rows = append(rows, rng.Intn(m))
			}
			p.AddColumn(rng.Float64()*2-0.5, rows)
		}
		dsol, err := (&Dense{}).Solve(p)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		rsol, err := SolveConfig(p, Revised{tuning: tuning{refactorEvery: 4, pricingWindow: 3}})
		if err != nil {
			t.Fatalf("trial %d revised: %v", trial, err)
		}
		if math.Abs(dsol.Objective-rsol.Objective) > 5e-6*(1+math.Abs(dsol.Objective)) {
			t.Fatalf("trial %d: dense %v vs revised %v", trial, dsol.Objective, rsol.Objective)
		}
		if err := Verify(p, rsol, 1e-6); err != nil {
			t.Errorf("trial %d verify: %v", trial, err)
		}
	}
}

func TestAutoSolveSelects(t *testing.T) {
	rng := xrand.New(5)
	p := randomPacking(rng, 10, 5, 3)
	sol, err := SolveConfig(p, Revised{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, sol, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Unbounded.String() != "unbounded" ||
		IterLimit.String() != "iteration-limit" || Status(9).String() == "" {
		t.Error("Status.String broken")
	}
}

func TestIterLimit(t *testing.T) {
	rng := xrand.New(6)
	p := randomPacking(rng, 20, 10, 5)
	_, err := (&Dense{MaxIter: 1}).Solve(p)
	if err != ErrIterLimit {
		t.Errorf("dense: err = %v, want ErrIterLimit", err)
	}
	_, err = SolveConfig(p, Revised{tuning: tuning{maxIter: 1}})
	if err != ErrIterLimit {
		t.Errorf("revised: err = %v, want ErrIterLimit", err)
	}
}

func BenchmarkRevisedMediumPacking(b *testing.B) {
	rng := xrand.New(1)
	p := randomPacking(rng, 500, 100, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveConfig(p, Revised{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseMediumPacking(b *testing.B) {
	rng := xrand.New(1)
	p := randomPacking(rng, 100, 30, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Dense{}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// The pooled Devex passes must reproduce the sequential solve bit-for-bit:
// same pivots, same primal solution, same objective. parallelThreshold 1
// keeps the worker count on this small LP, whose passes still fit in one
// pool chunk; TestRevisedPooledDevexWorkerInvariance splits them.
func TestRevisedDevexWorkerInvariance(t *testing.T) {
	rng := xrand.New(31)
	p := randomPacking(rng, 300, 60, 6)
	solve := func(workers int) *Solution {
		sol, err := SolveConfig(p, Revised{Workers: workers, tuning: tuning{pricing: pricingDevex, parallelThreshold: 1}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sol
	}
	ref := solve(1)
	for _, workers := range []int{2, 4, 7, runtime.GOMAXPROCS(0)} {
		got := solve(workers)
		if got.Objective != ref.Objective || got.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: objective/iterations %v/%d, want %v/%d",
				workers, got.Objective, got.Iterations, ref.Objective, ref.Iterations)
		}
		if !reflect.DeepEqual(got.X, ref.X) || !reflect.DeepEqual(got.Y, ref.Y) {
			t.Fatalf("workers=%d: solution vectors differ", workers)
		}
	}
}

// TestRevisedPooledDevexWorkerInvariance runs the pooled Devex passes over
// more than one pool chunk: above 2·devexGrain variables, a worker count of 4
// splits each pass into several chunks on two goroutines, which the small LP
// of TestRevisedDevexWorkerInvariance never does. The solve must also take
// the dense-pivot-row update, the pass the row scatter does not cover.
func TestRevisedPooledDevexWorkerInvariance(t *testing.T) {
	p := randomPacking(xrand.New(41), 400, 60, 45)
	if vars := p.NumCols() + p.NumRows; vars <= 2*devexGrain {
		t.Fatalf("%d variables fit in two pool chunks", vars)
	}
	solve := func(workers int) (*Solution, PhaseTimers) {
		var tm PhaseTimers
		sol, err := SolveConfig(p, Revised{Workers: workers, Timers: &tm, tuning: tuning{pricing: pricingDevex, parallelThreshold: 1}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sol, tm
	}
	ref, _ := solve(1)
	got, tm := solve(4)
	if tm.Pivots == tm.RowPricedUpdates {
		t.Fatalf("no dense-pivot-row update in %d pivots", tm.Pivots)
	}
	if got.Objective != ref.Objective || got.Iterations != ref.Iterations {
		t.Fatalf("workers=4: objective/iterations %v/%d, want %v/%d",
			got.Objective, got.Iterations, ref.Objective, ref.Iterations)
	}
	if !reflect.DeepEqual(got.X, ref.X) || !reflect.DeepEqual(got.Y, ref.Y) {
		t.Fatal("workers=4: solution vectors differ")
	}
}

func TestDevexAndDantzigAgreeOnPacking(t *testing.T) {
	rng := xrand.New(12)
	for trial := 0; trial < 15; trial++ {
		p := randomPacking(rng, 5+rng.Intn(25), 3+rng.Intn(10), 5)
		devex, err := SolveConfig(p, Revised{tuning: tuning{pricing: pricingDevex}})
		if err != nil {
			t.Fatalf("trial %d devex: %v", trial, err)
		}
		dantzig, err := SolveConfig(p, Revised{tuning: tuning{pricing: pricingDantzig}})
		if err != nil {
			t.Fatalf("trial %d dantzig: %v", trial, err)
		}
		if diff := devex.Objective - dantzig.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: devex %v vs dantzig %v", trial, devex.Objective, dantzig.Objective)
		}
		if err := Verify(p, devex, 1e-5); err != nil {
			t.Errorf("trial %d devex verify: %v", trial, err)
		}
	}
}
