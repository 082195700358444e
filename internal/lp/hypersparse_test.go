package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// canonBits maps a float to its bit pattern with signed zeros collapsed:
// the hypersparse kernels may leave +0 where the dense sweep computed −0
// (an unreached position is never written rather than multiplied out), and
// no consumer distinguishes them.
func canonBits(v float64) uint64 {
	return math.Float64bits(v + 0)
}

// randomBasis builds a random nonsingular lower-bandish sparse basis: a
// permuted identity diagonal plus a few random off-diagonal entries per
// column, the shape triangular solves meet in practice.
func randomBasis(rng *xrand.RNG, m int) []spCol {
	cols := make([]spCol, m)
	perm := rng.Perm(m)
	for j := 0; j < m; j++ {
		rows := []int32{int32(perm[j])}
		vals := []float64{1 + rng.Float64()}
		for k := 0; k < rng.Intn(3); k++ {
			r := int32(rng.Intn(m))
			if r == rows[0] {
				continue
			}
			dup := false
			for _, seen := range rows {
				if seen == r {
					dup = true
					break
				}
			}
			if !dup {
				rows = append(rows, r)
				vals = append(vals, 0.25*(rng.Float64()-0.5))
			}
		}
		cols[j] = spCol{rows: rows, vals: vals}
	}
	return cols
}

// TestHypersparseSolveMatchesDense pins the tentpole bit-identity contract:
// for sparse right-hand sides, solveBHyper/solveBTHyper must produce exactly
// the bits of the dense sequential sweeps (modulo zero sign), report the
// true nonzero support, and abort cleanly — scratch re-zeroed, output
// untouched — when the symbolic reach exceeds the cap.
func TestHypersparseSolveMatchesDense(t *testing.T) {
	rng := xrand.New(97)
	for trial := 0; trial < 50; trial++ {
		m := 20 + rng.Intn(180)
		cols := randomBasis(rng, m)
		f, err := luFactorize(m, cols)
		if err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		h := &hyperReach{}
		work := make([]float64, m)
		dense := make([]float64, m)
		sparse := make([]float64, m)

		// FTRAN: scattered RHS with 1–3 entries.
		nz := 1 + rng.Intn(3)
		rows := make([]int32, 0, nz)
		vals := make([]float64, 0, nz)
		for len(rows) < nz {
			r := int32(rng.Intn(m))
			dup := false
			for _, seen := range rows {
				if seen == r {
					dup = true
					break
				}
			}
			if !dup {
				rows = append(rows, r)
				vals = append(vals, rng.Float64()*2-1)
			}
		}
		f.solveB(rows, vals, dense, work)
		if !f.solveBHyper(h, rows, vals, sparse, work, m) {
			t.Fatalf("trial %d: solveBHyper aborted below an m-step cap", trial)
		}
		for i := range work {
			if work[i] != 0 {
				t.Fatalf("trial %d: solveBHyper left scratch dirty at %d", trial, i)
			}
		}
		for i := range dense {
			if canonBits(dense[i]) != canonBits(sparse[i]) {
				t.Fatalf("trial %d: ftran row %d: dense %x sparse %x",
					trial, i, math.Float64bits(dense[i]), math.Float64bits(sparse[i]))
			}
		}

		// BTRAN: dense c with 1–2 nonzero positions, seeds listing them.
		c := make([]float64, m)
		var seeds []int32
		for k := 0; k < 1+rng.Intn(2); k++ {
			p := rng.Intn(m)
			if c[p] == 0 {
				c[p] = rng.Float64()*2 - 1
				seeds = append(seeds, int32(p))
			}
		}
		f.solveBT(c, dense, work)
		var support []int32
		if !f.solveBTHyper(h, c, sparse, work, seeds, &support, m) {
			t.Fatalf("trial %d: solveBTHyper aborted below an m-step cap", trial)
		}
		for i := range work {
			if work[i] != 0 {
				t.Fatalf("trial %d: solveBTHyper left scratch dirty at %d", trial, i)
			}
		}
		onSupport := make([]bool, m)
		for _, r := range support {
			onSupport[r] = true
		}
		for i := range dense {
			if canonBits(dense[i]) != canonBits(sparse[i]) {
				t.Fatalf("trial %d: btran row %d: dense %x sparse %x",
					trial, i, math.Float64bits(dense[i]), math.Float64bits(sparse[i]))
			}
			if sparse[i] != 0 && !onSupport[i] {
				t.Fatalf("trial %d: btran support misses nonzero row %d", trial, i)
			}
			if sparse[i] == 0 && onSupport[i] {
				t.Fatalf("trial %d: btran support lists zero row %d", trial, i)
			}
		}

		// Abort path: a cap of 1 cannot cover any nontrivial reach; the
		// kernels must decline without corrupting scratch or output. (A
		// single-seed, single-step reach may legitimately succeed at cap 1,
		// in which case it rewrites the same bits.)
		if f.solveBHyper(h, rows, vals, sparse, work, 1) && len(rows) > 1 {
			t.Fatalf("trial %d: cap 1 accepted a %d-seed ftran", trial, len(rows))
		}
		for i := range work {
			if work[i] != 0 {
				t.Fatalf("trial %d: aborted solveBHyper left scratch dirty at %d", trial, i)
			}
		}
		ref := append([]float64(nil), sparse...)
		if !f.solveBTHyper(h, c, sparse, work, seeds, nil, 1) {
			for i := range sparse {
				if sparse[i] != ref[i] {
					t.Fatalf("trial %d: aborted solveBTHyper touched out[%d]", trial, i)
				}
			}
			for i := range work {
				if work[i] != 0 {
					t.Fatalf("trial %d: aborted solveBTHyper left scratch dirty at %d", trial, i)
				}
			}
		}
	}
}

// TestHypersparseThresholdInvariance pins the determinism contract: the
// HypersparseThreshold knob moves triangular solves between the symbolic-
// reach kernels and the dense sweeps, but the solution — every bit of X, Y
// and the pivot trajectory — must not move. Counters prove both regimes
// actually ran.
func TestHypersparseThresholdInvariance(t *testing.T) {
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
	d.SetB = append(d.SetB,
		BoundChange{Row: 210, B: 0},
		BoundChange{Row: 215, B: math.Max(0, p.B[215]-2)})

	run := func(thr float64) (*Solution, PhaseTimers) {
		tm := &PhaseTimers{}
		s := NewSolver(Revised{HypersparseThreshold: thr, Timers: tm})
		defer s.Release()
		if _, err := s.Solve(cloneProblem(p)); err != nil {
			t.Fatalf("thr=%v: %v", thr, err)
		}
		sol, err := s.Resolve(d)
		if err != nil {
			t.Fatalf("thr=%v: %v", thr, err)
		}
		return sol, *tm
	}

	refSol, _ := run(0) // 0 = default threshold
	sawHyper, sawDense := false, false
	for _, thr := range []float64{0.001, 0.05, 0.5, 1} {
		sol, tm := run(thr)
		if sol.Objective != refSol.Objective || sol.Iterations != refSol.Iterations {
			t.Fatalf("thr=%v: objective/pivots differ from default threshold", thr)
		}
		for i := range sol.X {
			if canonBits(sol.X[i]) != canonBits(refSol.X[i]) {
				t.Fatalf("thr=%v: X[%d] differs", thr, i)
			}
		}
		for i := range sol.Y {
			if canonBits(sol.Y[i]) != canonBits(refSol.Y[i]) {
				t.Fatalf("thr=%v: Y[%d] differs", thr, i)
			}
		}
		hyper := tm.HypersparseFtran + tm.HypersparseBtran
		if thr == 0.001 && hyper != 0 {
			t.Fatalf("thr=%v: expected all-dense solves, got %d hypersparse", thr, hyper)
		}
		if hyper > 0 {
			sawHyper = true
		} else {
			sawDense = true
		}
	}
	if !sawHyper || !sawDense {
		t.Fatalf("threshold sweep did not exercise both kernel regimes (hyper=%v dense=%v)",
			sawHyper, sawDense)
	}
}

// TestLUScheduleRebuiltAfterRefactorize guards the staleness contract of the
// lazily built row graphs: factorize invalidates them, so a hypersparse
// BTRAN after an in-place refactorization must match the fresh sequential
// solve, not reach over the old factors' pattern.
func TestLUScheduleRebuiltAfterRefactorize(t *testing.T) {
	rng := xrand.New(11)
	m := 40
	var f *luFactors
	for f == nil {
		f, _ = luFactorize(m, randomBasisLike(rng, m))
	}
	h := &hyperReach{}
	work := make([]float64, m)
	c := make([]float64, m)
	out := make([]float64, m)
	c[3] = 1
	f.solveBTHyper(h, c, out, work, []int32{3}, nil, m) // builds A's row graphs

	// refactorize the same struct with a different matrix, redrawing until
	// the draw is nonsingular
	for f.factorize(m, randomBasisLike(rng, m)) != nil {
	}
	for p := 0; p < m; p++ {
		c := make([]float64, m)
		c[p] = rng.Float64() + 0.5
		want := make([]float64, m)
		f.solveBT(c, want, work)
		got := make([]float64, m)
		if !f.solveBTHyper(h, c, got, work, []int32{int32(p)}, nil, m) {
			t.Fatalf("seed %d: solveBTHyper aborted below an m-step cap", p)
		}
		for i := range want {
			if canonBits(got[i]) != canonBits(want[i]) {
				t.Fatalf("seed %d: row %d: got %v want %v", p, i, got[i], want[i])
			}
		}
	}
}
