package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// The LU kernel is general: its factors hold general values, so these tests
// hand it general matrices as spCol values directly.

// luFactorize computes a fresh factorization of the m×m matrix whose columns
// are cols.
func luFactorize(m int, cols []spCol) (*luFactors, error) {
	f := &luFactors{}
	if err := f.factorize(m, cols); err != nil {
		return nil, err
	}
	return f, nil
}

// multiply computes B·x for a column-sparse matrix.
func multiply(m int, cols []spCol, x []float64) []float64 {
	out := make([]float64, m)
	for j, col := range cols {
		if x[j] == 0 {
			continue
		}
		for k, r := range col.rows {
			out[r] += col.vals[k] * x[j]
		}
	}
	return out
}

// multiplyT computes Bᵀ·y.
func multiplyT(cols []spCol, y []float64) []float64 {
	out := make([]float64, len(cols))
	for j, col := range cols {
		s := 0.0
		for k, r := range col.rows {
			s += col.vals[k] * y[r]
		}
		out[j] = s
	}
	return out
}

func checkSolve(t *testing.T, m int, cols []spCol, rhsRows []int, rhsVals []float64) {
	t.Helper()
	f, err := luFactorize(m, cols)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	rows32 := make([]int32, len(rhsRows))
	for i, r := range rhsRows {
		rows32[i] = int32(r)
	}
	out := make([]float64, m)
	work := make([]float64, m)
	f.solveB(rows32, rhsVals, out, work)
	for i, v := range work {
		if v != 0 {
			t.Fatalf("work vector not restored to zero at %d: %v", i, v)
		}
	}
	// verify B·out == rhs
	got := multiply(m, cols, out)
	want := make([]float64, m)
	for i, r := range rhsRows {
		want[r] += rhsVals[i]
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("B·x mismatch at row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func checkSolveT(t *testing.T, m int, cols []spCol, c []float64) {
	t.Helper()
	f, err := luFactorize(m, cols)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	out := make([]float64, m)
	work := make([]float64, m)
	f.solveBT(c, out, work)
	got := multiplyT(cols, out)
	for j := range c {
		if math.Abs(got[j]-c[j]) > 1e-8*(1+math.Abs(c[j])) {
			t.Fatalf("Bᵀ·y mismatch at %d: got %v want %v", j, got[j], c[j])
		}
	}
}

func TestLUIdentity(t *testing.T) {
	m := 5
	cols := make([]spCol, m)
	for i := range cols {
		cols[i] = spCol{rows: []int32{int32(i)}, vals: []float64{1}}
	}
	checkSolve(t, m, cols, []int{0, 3}, []float64{2, -7})
	checkSolveT(t, m, cols, []float64{1, 2, 3, 4, 5})
}

func TestLUPermutation(t *testing.T) {
	// column j has a single 1 in row (j+2) mod m
	m := 6
	cols := make([]spCol, m)
	for j := range cols {
		cols[j] = spCol{rows: []int32{int32((j + 2) % m)}, vals: []float64{3}}
	}
	checkSolve(t, m, cols, []int{1, 4}, []float64{1, 1})
	checkSolveT(t, m, cols, []float64{5, 0, -2, 1, 0, 9})
}

func TestLUDenseSmall(t *testing.T) {
	// A hand-picked 3x3 with fill-in:
	// [ 2 1 0 ]
	// [ 1 3 1 ]
	// [ 0 1 4 ]
	cols := []spCol{
		{rows: []int32{0, 1}, vals: []float64{2, 1}},
		{rows: []int32{0, 1, 2}, vals: []float64{1, 3, 1}},
		{rows: []int32{1, 2}, vals: []float64{1, 4}},
	}
	checkSolve(t, 3, cols, []int{0, 1, 2}, []float64{1, 2, 3})
	checkSolveT(t, 3, cols, []float64{-1, 0.5, 2})
}

func TestLUSingular(t *testing.T) {
	// two identical columns
	cols := []spCol{
		{rows: []int32{0, 1}, vals: []float64{1, 1}},
		{rows: []int32{0, 1}, vals: []float64{1, 1}},
	}
	if _, err := luFactorize(2, cols); err == nil {
		t.Fatal("singular matrix not detected")
	}
	// zero column
	cols = []spCol{{rows: []int32{0}, vals: []float64{1}}, {}}
	if _, err := luFactorize(2, cols); err == nil {
		t.Fatal("zero column not detected")
	}
}

func TestLUWrongShape(t *testing.T) {
	if _, err := luFactorize(3, make([]spCol, 2)); err == nil {
		t.Fatal("shape mismatch not detected")
	}
}

// randomBasisLike builds a random nonsingular sparse matrix shaped like a
// simplex basis: a mix of unit (slack) columns and short structural columns
// with an identity backbone to guarantee nonsingularity is likely.
func randomBasisLike(rng *xrand.RNG, m int) []spCol {
	cols := make([]spCol, m)
	perm := rng.Perm(m)
	for j := 0; j < m; j++ {
		if rng.Bool(0.4) {
			cols[j] = spCol{rows: []int32{int32(perm[j])}, vals: []float64{1 + rng.Float64()}}
			continue
		}
		rows := map[int]float64{perm[j]: 1.5 + rng.Float64()} // diagonal anchor
		extra := 1 + rng.Intn(4)
		for e := 0; e < extra; e++ {
			rows[rng.Intn(m)] = rng.Float64()*2 - 1
		}
		var col spCol
		for r, v := range rows {
			col.rows = append(col.rows, int32(r))
			col.vals = append(col.vals, v)
		}
		cols[j] = col
	}
	return cols
}

func TestLURandomRoundTrip(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(60)
		cols := randomBasisLike(rng, m)
		f, err := luFactorize(m, cols)
		if err != nil {
			continue // rare singular draw is fine; skip
		}
		// random rhs
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		b := multiply(m, cols, x)
		rows := make([]int32, m)
		for i := range rows {
			rows[i] = int32(i)
		}
		out := make([]float64, m)
		work := make([]float64, m)
		f.solveB(rows, b, out, work)
		for i := range x {
			if math.Abs(out[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: solveB[%d] = %v want %v", trial, i, out[i], x[i])
			}
		}
		// transpose round trip
		c := multiplyT(cols, x) // here x plays the role of y: c = Bᵀx
		outT := make([]float64, m)
		f.solveBT(c, outT, work)
		for i := range x {
			if math.Abs(outT[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: solveBT[%d] = %v want %v", trial, i, outT[i], x[i])
			}
		}
	}
}

func TestStepHeap(t *testing.T) {
	var h stepHeap
	for _, v := range []int{5, 1, 9, 3, 3, 0, 7} {
		h.push(v)
	}
	prev := -1
	for len(h) > 0 {
		v := h.pop()
		if v < prev {
			t.Fatalf("heap order violated: %d after %d", v, prev)
		}
		prev = v
	}
}
