package lp

import (
	"fmt"
	"math"
	"sort"

	"github.com/ebsn/igepa/internal/par"
)

// spCol is one sparse column handed to the LU kernel — typically a view into
// the Problem's CSC arrays or into the solver's slack storage, never a copy.
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

	// Level-schedule state for the parallel triangular solves, built lazily
	// by buildSchedule after each factorization (schedOK gates staleness).
	// lRow*/uRow* are row-major (CSR) mirrors of the column-stored factors;
	// within row k, L entries are sorted by ascending column step and U
	// entries by descending column step — exactly the order in which the
	// sequential push-form solveB applies that row's updates, which is what
	// makes the pull-form level solves bit-identical to it. The four
	// schedules list steps in level-major order (ord[ptr[l]:ptr[l+1]] is
	// level l, ascending step within a level): levL/levU drive solveBLevel's
	// forward/backward sweeps, levUT/levLT drive solveBTLevel's.
	schedOK            bool
	stepOf             []int32 // basis position -> step (inverse colOrder)
	lRowPtr, uRowPtr   []int32
	lRowIdx, uRowIdx   []int32
	lRowVal, uRowVal   []float64
	levLPtr, levLOrd   []int32
	levUPtr, levUOrd   []int32
	levUTPtr, levUTOrd []int32
	levLTPtr, levLTOrd []int32
	lev, cur           []int32 // schedule-builder scratch, length m
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

// luFactorize computes a fresh factorization of the m×m matrix whose columns
// are cols (assembly-form convenience used by the tests; the solver reuses
// one luFactors via factorize).
func luFactorize(m int, cols []Column) (*luFactors, error) {
	sp := make([]spCol, len(cols))
	for i := range cols {
		rows := make([]int32, len(cols[i].Rows))
		for k, r := range cols[i].Rows {
			rows[k] = int32(r)
		}
		sp[i] = spCol{rows: rows, vals: cols[i].Vals}
	}
	f := &luFactors{}
	if err := f.factorize(m, sp); err != nil {
		return nil, err
	}
	return f, nil
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
	f.schedOK = false
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

// luLevelGrain is the number of steps one worker claims at a time inside a
// level of a parallel triangular solve. A package variable (not a constant)
// so the invariance tests can force multi-chunk levels on tiny bases; the
// solver never mutates it.
var luLevelGrain = 512

// resize32 is resizeF for int32 slices.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// csrMirror builds a row-major mirror of a column-stored triangle
// (ptr/idx/val, m columns). Columns are visited in ascending order when
// ascending is true and descending order otherwise, so each row's entry list
// comes out sorted by ascending resp. descending column step — the exact
// order in which the sequential push-form solve applies that row's updates.
// cur is caller scratch of length ≥ m.
func csrMirror(m int, ptr, idx []int32, val []float64, rowPtr, rowIdx []int32, rowVal []float64, cur []int32, ascending bool) ([]int32, []int32, []float64) {
	rowPtr = resize32(rowPtr, m+1)
	for i := range rowPtr {
		rowPtr[i] = 0
	}
	for _, s := range idx {
		rowPtr[s+1]++
	}
	for i := 0; i < m; i++ {
		rowPtr[i+1] += rowPtr[i]
		cur[i] = rowPtr[i]
	}
	rowIdx = resize32(rowIdx, len(idx))
	rowVal = resizeF(rowVal, len(val))
	scatter := func(k int) {
		for t := ptr[k]; t < ptr[k+1]; t++ {
			s := idx[t]
			slot := cur[s]
			cur[s]++
			rowIdx[slot] = int32(k)
			rowVal[slot] = val[t]
		}
	}
	if ascending {
		for k := 0; k < m; k++ {
			scatter(k)
		}
	} else {
		for k := m - 1; k >= 0; k-- {
			scatter(k)
		}
	}
	return rowPtr, rowIdx, rowVal
}

// levelSchedule assigns each step its dependency depth — lev[k] is one more
// than the deepest of row k's dependencies idx[ptr[k]:ptr[k+1]] — and
// buckets the steps into a level-major order: ord[outPtr[l]:outPtr[l+1]]
// lists level l's steps in ascending step order. Steps are visited in
// topological order (ascending when forward, descending otherwise), so
// every dependency's level is final before it is read. lev and cur are
// caller scratch of length ≥ m.
func levelSchedule(m int, ptr, idx []int32, forward bool, lev, cur []int32, outPtr, outOrd []int32) ([]int32, []int32) {
	depth := func(k int) {
		lv := int32(0)
		for t := ptr[k]; t < ptr[k+1]; t++ {
			if d := lev[idx[t]] + 1; d > lv {
				lv = d
			}
		}
		lev[k] = lv
	}
	if forward {
		for k := 0; k < m; k++ {
			depth(k)
		}
	} else {
		for k := m - 1; k >= 0; k-- {
			depth(k)
		}
	}
	nLev := int32(0)
	for k := 0; k < m; k++ {
		if lev[k]+1 > nLev {
			nLev = lev[k] + 1
		}
	}
	outPtr = resize32(outPtr, int(nLev)+1)
	for i := range outPtr {
		outPtr[i] = 0
	}
	for k := 0; k < m; k++ {
		outPtr[lev[k]+1]++
	}
	for l := int32(0); l < nLev; l++ {
		outPtr[l+1] += outPtr[l]
		cur[l] = outPtr[l]
	}
	outOrd = resize32(outOrd, m)
	for k := 0; k < m; k++ {
		slot := cur[lev[k]]
		cur[lev[k]]++
		outOrd[slot] = int32(k)
	}
	return outPtr, outOrd
}

// buildSchedule constructs (once per factorization) the CSR mirrors and the
// four level schedules used by solveBLevel/solveBTLevel. Idempotent and
// cheap relative to factorize — one pass over each factor's nonzeros per
// structure — but still only built when a parallel solve first wants it, so
// sequential configurations pay nothing.
func (f *luFactors) buildSchedule() {
	if f.schedOK {
		return
	}
	m := f.m
	f.lev = resize32(f.lev, m)
	f.cur = resize32(f.cur, m)
	f.stepOf = resize32(f.stepOf, m)
	for k := 0; k < m; k++ {
		f.stepOf[f.colOrder[k]] = int32(k)
	}
	f.lRowPtr, f.lRowIdx, f.lRowVal = csrMirror(m, f.lPtr, f.lIdx, f.lVal, f.lRowPtr, f.lRowIdx, f.lRowVal, f.cur, true)
	f.uRowPtr, f.uRowIdx, f.uRowVal = csrMirror(m, f.uPtr, f.uIdx, f.uVal, f.uRowPtr, f.uRowIdx, f.uRowVal, f.cur, false)
	// Dependencies per solve sweep: L-forward and U-backward pull along
	// rows of the respective factor; the transposed sweeps pull along
	// columns, so the column storage doubles as their dependency lists.
	f.levLPtr, f.levLOrd = levelSchedule(m, f.lRowPtr, f.lRowIdx, true, f.lev, f.cur, f.levLPtr, f.levLOrd)
	f.levUPtr, f.levUOrd = levelSchedule(m, f.uRowPtr, f.uRowIdx, false, f.lev, f.cur, f.levUPtr, f.levUOrd)
	f.levUTPtr, f.levUTOrd = levelSchedule(m, f.uPtr, f.uIdx, true, f.lev, f.cur, f.levUTPtr, f.levUTOrd)
	f.levLTPtr, f.levLTOrd = levelSchedule(m, f.lPtr, f.lIdx, false, f.lev, f.cur, f.levLTPtr, f.levLTOrd)
	f.schedOK = true
}

// solveBLevel is solveB restructured as a level-scheduled pull: within each
// dependency level every step reads only results finalized by earlier levels
// and writes only its own slot, so levels run on the worker pool. Row entry
// order (ascending column step for L, descending for U) and the zero-
// dependency skip replicate the sequential solve's floating-point operation
// sequence exactly — the result is bit-identical to solveB for any workers.
func (f *luFactors) solveBLevel(rows []int32, vals []float64, out, work []float64, workers int) {
	f.buildSchedule()
	z := work
	for i, r := range rows {
		z[f.pos[r]] += vals[i]
	}
	// L z' = z (pull form: z[k] ← z[k] − Σ_j L[k,j]·z'[j], deps j < k).
	par.ForLevels(workers, f.levLPtr, luLevelGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			k := f.levLOrd[p]
			acc := z[k]
			for t := f.lRowPtr[k]; t < f.lRowPtr[k+1]; t++ {
				if xj := z[f.lRowIdx[t]]; xj != 0 {
					acc -= xj * f.lRowVal[t]
				}
			}
			z[k] = acc
		}
	})
	// U t = z' (pull form; deps j > k, descending, v_j stored into z[j]).
	par.ForLevels(workers, f.levUPtr, luLevelGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			k := f.levUOrd[p]
			acc := z[k]
			for t := f.uRowPtr[k]; t < f.uRowPtr[k+1]; t++ {
				if vj := z[f.uRowIdx[t]]; vj != 0 {
					acc -= vj * f.uRowVal[t]
				}
			}
			z[k] = acc / f.uDiag[k]
		}
	})
	par.RangesAt(workers, 0, f.m, luLevelGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out[f.colOrder[k]] = z[k]
			z[k] = 0
		}
	})
}

// solveBTLevel is solveBT run level-by-level. The sequential solve is
// already pull-form, so each step's inner loop is verbatim the same code
// over the same column slices — bit-identity across worker counts needs no
// reordering argument here, only the schedule's dependency correctness.
func (f *luFactors) solveBTLevel(c, out, work []float64, workers int) {
	f.buildSchedule()
	t := work
	// Uᵀ t = Qᵀc (deps: U column k's steps, all < k).
	par.ForLevels(workers, f.levUTPtr, luLevelGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			k := f.levUTOrd[p]
			v := c[f.colOrder[k]]
			idx := f.uIdx[f.uPtr[k]:f.uPtr[k+1]]
			val := f.uVal[f.uPtr[k]:f.uPtr[k+1]]
			for i, s := range idx {
				v -= val[i] * t[s]
			}
			t[k] = v / f.uDiag[k]
		}
	})
	// Lᵀ s = t (deps: L column k's steps, all > k).
	par.ForLevels(workers, f.levLTPtr, luLevelGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			k := f.levLTOrd[p]
			v := t[k]
			idx := f.lIdx[f.lPtr[k]:f.lPtr[k+1]]
			val := f.lVal[f.lPtr[k]:f.lPtr[k+1]]
			for i, s := range idx {
				v -= val[i] * t[s]
			}
			t[k] = v
		}
	})
	par.RangesAt(workers, 0, f.m, luLevelGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out[f.pivRow[k]] = t[k]
			t[k] = 0
		}
	})
}
