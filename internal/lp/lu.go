package lp

import (
	"fmt"
	"math"
	"sort"
)

// spCol is one sparse column handed to the LU kernel. The kernel is general:
// the solver hands it views of a basis column's rows (into the Problem's CSC
// array or the slack row sequence) paired with its shared all-ones vector,
// never a copy, and its tests hand it general matrices.
type spCol struct {
	rows []int32
	vals []float64
}

// luFactors is a sparse LU factorization of a square basis matrix B with
// row partial pivoting and a sparsity-oriented column order:
//
//	B[:, colOrder[k]] is eliminated at step k, pivoting on original row
//	pivRow[k], so that  P·B·Q = L·U  with P, Q the row/column permutations
//	and L unit-lower-triangular, U upper-triangular, both in "step" space.
//
// L and U are stored column-wise in flat arrays: L's column k occupies
// lIdx[lPtr[k]:lPtr[k+1]] / lVal[...] (strictly-lower entries, step indices
// > k), U's column k occupies uIdx[uPtr[k]:uPtr[k+1]] / uVal[...] (strictly-
// upper entries, step indices < k), and uDiag[k] holds the diagonal pivot.
// The struct is reusable: factorize overwrites in place, so a solver that
// refactorizes every few dozen pivots allocates the workspace once instead
// of millions of per-column slices over a long solve.
type luFactors struct {
	m        int
	colOrder []int // step -> basis position
	pivRow   []int // step -> original row
	pos      []int // original row -> step

	lPtr, uPtr []int32
	lIdx, uIdx []int32
	lVal, uVal []float64
	uDiag      []float64

	// factorization scratch, reused across refactorizations
	w         []float64 // dense accumulator, original-row space
	inW, seen []bool
	touched   []int
	processed []int
	steps     stepHeap

	// Row-major nonzero patterns of L and U, built lazily by buildRowGraphs
	// for the hypersparse transposed solve (rowsOK gates staleness).
	rowsOK           bool
	stepOf           []int32 // basis position -> step (inverse colOrder)
	lRowPtr, uRowPtr []int32
	lRowIdx, uRowIdx []int32
}

// stepHeap is a small binary min-heap of step indices used to process
// eliminations in increasing step order during factorization.
type stepHeap []int

func (h *stepHeap) push(x int) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *stepHeap) pop() int {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && (*h)[l] < (*h)[sm] {
			sm = l
		}
		if r < n && (*h)[r] < (*h)[sm] {
			sm = r
		}
		if sm == i {
			break
		}
		(*h)[i], (*h)[sm] = (*h)[sm], (*h)[i]
		i = sm
	}
	return top
}

// resize (re)shapes the persistent arrays for an m×m factorization and
// clears the scratch state.
func (f *luFactors) resize(m int) {
	f.m = m
	if cap(f.colOrder) < m {
		f.colOrder = make([]int, m)
		f.pivRow = make([]int, m)
		f.pos = make([]int, m)
		f.uDiag = make([]float64, m)
		f.lPtr = make([]int32, m+1)
		f.uPtr = make([]int32, m+1)
		f.w = make([]float64, m)
		f.inW = make([]bool, m)
		f.seen = make([]bool, m)
	} else {
		f.colOrder = f.colOrder[:m]
		f.pivRow = f.pivRow[:m]
		f.pos = f.pos[:m]
		f.uDiag = f.uDiag[:m]
		f.lPtr = f.lPtr[:m+1]
		f.uPtr = f.uPtr[:m+1]
		f.w = f.w[:m]
		f.inW = f.inW[:m]
		f.seen = f.seen[:m]
	}
	for i := 0; i < m; i++ {
		f.colOrder[i] = i
		f.pos[i] = -1
		f.w[i] = 0
		f.inW[i] = false
		f.seen[i] = false
	}
	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.touched = f.touched[:0]
	f.processed = f.processed[:0]
	f.steps = f.steps[:0]
	f.lPtr[0], f.uPtr[0] = 0, 0
}

// factorize overwrites f with the factorization of the m×m matrix whose
// columns are cols. Columns are eliminated in order of increasing nonzero
// count (slacks and other singletons first), an effective cheap
// fill-reducing heuristic for the near-network bases of the benchmark LP.
// Returns an error if the matrix is numerically singular.
func (f *luFactors) factorize(m int, cols []spCol) error {
	if len(cols) != m {
		return fmt.Errorf("lp: lu of %dx%d matrix with %d columns", m, m, len(cols))
	}
	f.resize(m)
	sort.SliceStable(f.colOrder, func(a, b int) bool {
		return len(cols[f.colOrder[a]].rows) < len(cols[f.colOrder[b]].rows)
	})

	// While rows are still being pivoted, lIdx holds L entries in
	// original-row space; they are translated to step space after the last
	// column.
	for k := 0; k < m; k++ {
		col := cols[f.colOrder[k]]
		f.steps = f.steps[:0]
		f.processed = f.processed[:0]
		f.touched = f.touched[:0]
		for i, r32 := range col.rows {
			r := int(r32)
			if !f.inW[r] {
				f.inW[r] = true
				f.touched = append(f.touched, r)
			}
			f.w[r] += col.vals[i]
			if p := f.pos[r]; p >= 0 && !f.seen[p] {
				f.seen[p] = true
				f.processed = append(f.processed, p)
				f.steps.push(p)
			}
		}
		// Forward-eliminate through previously factored columns in
		// increasing step order (a topological order of L).
		for len(f.steps) > 0 {
			js := f.steps.pop()
			pr := f.pivRow[js]
			alpha := f.w[pr]
			f.w[pr] = 0
			if alpha == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, int32(js))
			f.uVal = append(f.uVal, alpha)
			lIdx := f.lIdx[f.lPtr[js]:f.lPtr[js+1]]
			lVal := f.lVal[f.lPtr[js]:f.lPtr[js+1]]
			for i, r32 := range lIdx {
				r := int(r32)
				if !f.inW[r] {
					f.inW[r] = true
					f.touched = append(f.touched, r)
				}
				f.w[r] -= alpha * lVal[i]
				if p := f.pos[r]; p >= 0 && !f.seen[p] {
					f.seen[p] = true
					f.processed = append(f.processed, p)
					f.steps.push(p)
				}
			}
		}
		// Partial pivoting among the remaining (unpivoted) rows.
		piv, pr := 0.0, -1
		for _, r := range f.touched {
			if f.pos[r] >= 0 {
				continue
			}
			if a := math.Abs(f.w[r]); a > piv {
				piv, pr = a, r
			}
		}
		if pr < 0 || piv < 1e-12 {
			return fmt.Errorf("lp: basis numerically singular at step %d", k)
		}
		pivVal := f.w[pr]
		f.pivRow[k] = pr
		f.pos[pr] = k
		f.uDiag[k] = pivVal
		for _, r := range f.touched {
			if f.pos[r] >= 0 {
				continue // pivot rows (incl. the current one) are not part of L
			}
			if v := f.w[r]; v != 0 {
				f.lIdx = append(f.lIdx, int32(r))
				f.lVal = append(f.lVal, v/pivVal)
			}
		}
		for _, r := range f.touched {
			f.w[r] = 0
			f.inW[r] = false
		}
		for _, s := range f.processed {
			f.seen[s] = false
		}
		f.lPtr[k+1] = int32(len(f.lIdx))
		f.uPtr[k+1] = int32(len(f.uIdx))
	}
	// Translate L's row indices to step space (every row now has a step).
	for i, r := range f.lIdx {
		f.lIdx[i] = int32(f.pos[r])
	}
	f.rowsOK = false
	return nil
}

// solveB computes d = B⁻¹a for a sparse right-hand side a given as
// (rows, vals) in original-row space. The result is written into out,
// indexed by basis position; work must be a zeroed scratch vector of
// length m and is returned zeroed.
func (f *luFactors) solveB(rows []int32, vals []float64, out, work []float64) {
	z := work
	for i, r := range rows {
		z[f.pos[r]] += vals[i]
	}
	// L z' = z (unit lower, forward)
	for k := 0; k < f.m; k++ {
		v := z[k]
		if v == 0 {
			continue
		}
		idx := f.lIdx[f.lPtr[k]:f.lPtr[k+1]]
		val := f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, s := range idx {
			z[s] -= v * val[i]
		}
	}
	// U t = z' (backward, column-oriented)
	for k := f.m - 1; k >= 0; k-- {
		v := z[k] / f.uDiag[k]
		z[k] = 0
		if v != 0 {
			idx := f.uIdx[f.uPtr[k]:f.uPtr[k+1]]
			val := f.uVal[f.uPtr[k]:f.uPtr[k+1]]
			for i, s := range idx {
				z[s] -= v * val[i]
			}
		}
		out[f.colOrder[k]] = v
	}
}

// solveBT computes y with Bᵀy = c, where c is indexed by basis position.
// The result is written into out, indexed by original row; work must be a
// zeroed scratch vector of length m and is returned zeroed.
func (f *luFactors) solveBT(c, out, work []float64) {
	t := work
	// Uᵀ t = Qᵀc (forward in step order, row-oriented via U's columns)
	for k := 0; k < f.m; k++ {
		v := c[f.colOrder[k]]
		idx := f.uIdx[f.uPtr[k]:f.uPtr[k+1]]
		val := f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, s := range idx {
			v -= val[i] * t[s]
		}
		t[k] = v / f.uDiag[k]
	}
	// Lᵀ s = t (backward, row-oriented via L's columns)
	for k := f.m - 1; k >= 0; k-- {
		v := t[k]
		idx := f.lIdx[f.lPtr[k]:f.lPtr[k+1]]
		val := f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, s := range idx {
			v -= val[i] * t[s]
		}
		t[k] = v
	}
	for k := 0; k < f.m; k++ {
		out[f.pivRow[k]] = t[k]
		t[k] = 0
	}
}
