package lp

import "sort"

// Hypersparse triangular kernels: Gilbert–Peierls-style solves for sparse
// right-hand sides. When the RHS of B d = a (a single entering column, a
// slack swap) or of Bᵀβ = e_r (a repair pivot row) touches only a few rows,
// the solution's nonzero pattern is the symbolic reach of those rows on the
// factor nonzero graphs — typically a few dozen steps out of thousands. The
// kernels below compute that reach by DFS, then run the numeric solve over
// the reached steps only, in exactly the step order the sequential dense
// sweeps use, so every floating-point operation that produces a nonzero is
// the same operation in the same order — the results are bit-identical to
// solveB/solveBT (unreached positions may carry the opposite zero sign,
// which no consumer distinguishes; the kernel tests canonicalize).
//
// Each DFS carries a step cap (hypersparseThreshold · m): if the reach
// grows past it the sparse attempt aborts — cleaning up whatever it touched
// — and the caller falls through to the dense sequential sweep. Since both
// paths compute the same bits, the threshold moves work between kernels
// without ever moving a pivot.

// hyperReach is the reusable symbolic state: two epoch-stamped visited maps
// (one per solve phase — the phases reach over different graphs and may
// revisit each other's steps) and the shared stack/output lists.
type hyperReach struct {
	mark1, mark2 []int32 // step -> epoch stamp, one per phase
	epoch        int32
	stack        []int32
	list1, list2 []int32 // reached steps per phase
}

func (h *hyperReach) reset(m int) {
	if cap(h.mark1) < m {
		h.mark1 = make([]int32, m)
		h.mark2 = make([]int32, m)
		h.epoch = 0
	}
	h.mark1 = h.mark1[:m]
	h.mark2 = h.mark2[:m]
	h.epoch++
	if h.epoch == 0 { // wrapped: stamps from the previous era could collide
		for i := range h.mark1 {
			h.mark1[i] = -1
			h.mark2[i] = -1
		}
		h.epoch = 1
	}
	h.list1 = h.list1[:0]
	h.list2 = h.list2[:0]
}

// dfs runs an iterative depth-first reach from seed over the graph whose
// adjacency of step k is idx[ptr[k]:ptr[k+1]], appending newly visited steps
// to list. Returns false (leaving list valid but incomplete) once the total
// would exceed cap.
func dfsReach(seed int32, ptr, idx []int32, mark []int32, epoch int32, stack, list []int32, limit int) ([]int32, []int32, bool) {
	if mark[seed] == epoch {
		return stack, list, true
	}
	if len(list) >= limit {
		return stack, list, false
	}
	mark[seed] = epoch
	list = append(list, seed)
	stack = append(stack[:0], seed)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for t := ptr[k]; t < ptr[k+1]; t++ {
			s := idx[t]
			if mark[s] == epoch {
				continue
			}
			if len(list) >= limit {
				return stack, list, false
			}
			mark[s] = epoch
			list = append(list, s)
			stack = append(stack, s)
		}
	}
	return stack, list, true
}

// sortSteps sorts ascending; the numeric sweeps iterate forward or backward
// over the sorted list to replicate the sequential step order.
func sortSteps(list []int32) {
	sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
}

// solveBHyper is solveB restricted to the symbolic reach of the RHS pattern.
// Returns false without touching out (and with work left zeroed) when the
// reach exceeds reachCap — the caller then runs a dense path.
func (f *luFactors) solveBHyper(h *hyperReach, rows []int32, vals []float64, out, work []float64, reachCap int) bool {
	if reachCap <= 0 || len(rows) > reachCap {
		return false
	}
	h.reset(f.m)
	// Phase L: reach of the scattered RHS over L's column graph (edges go to
	// larger steps).
	ok := true
	for _, r := range rows {
		h.stack, h.list1, ok = dfsReach(int32(f.pos[r]), f.lPtr, f.lIdx, h.mark1, h.epoch, h.stack, h.list1, reachCap)
		if !ok {
			return false
		}
	}
	sortSteps(h.list1)
	z := work
	for i, r := range rows {
		z[f.pos[r]] += vals[i]
	}
	for _, k := range h.list1 {
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
	// Phase U: reach of the L-solve's nonzeros over U's column graph (edges
	// go to smaller steps).
	for _, k := range h.list1 {
		if z[k] == 0 {
			continue
		}
		h.stack, h.list2, ok = dfsReach(k, f.uPtr, f.uIdx, h.mark2, h.epoch, h.stack, h.list2, reachCap)
		if !ok {
			// abort cleanly: undo the L-phase numerics
			for _, s := range h.list1 {
				z[s] = 0
			}
			return false
		}
	}
	sortSteps(h.list2)
	for i := range out {
		out[i] = 0
	}
	for p := len(h.list2) - 1; p >= 0; p-- {
		k := h.list2[p]
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
	return true
}

// solveBTHyper solves Bᵀy = c for a c whose nonzero basis positions are
// listed in seeds (c itself is the usual dense, mostly-zero vector). On
// success the solution is written into out and, when support is non-nil,
// the original-row indices of out's nonzero entries are appended to it —
// the exact pattern the reach-pruned dual pricing pass consumes. Returns
// false (out untouched, work re-zeroed) when the reach exceeds reachCap.
func (f *luFactors) solveBTHyper(h *hyperReach, c, out, work []float64, seeds []int32, support *[]int32, reachCap int) bool {
	if reachCap <= 0 || len(seeds) > reachCap {
		return false
	}
	f.buildRowGraphs()
	h.reset(f.m)
	// Phase Uᵀ: t[k] = (c_k − Σ_{s<k} U[s,k]·t[s]) / U[k,k], forward. A seed
	// at step s influences exactly the steps holding s in their U column —
	// U's row s, so the reach runs over the row pattern (edges to larger
	// steps).
	ok := true
	for _, p := range seeds {
		k := f.stepOf[p]
		h.stack, h.list1, ok = dfsReach(k, f.uRowPtr, f.uRowIdx, h.mark1, h.epoch, h.stack, h.list1, reachCap)
		if !ok {
			return false
		}
	}
	sortSteps(h.list1)
	t := work
	for _, k := range h.list1 {
		v := c[f.colOrder[k]]
		idx := f.uIdx[f.uPtr[k]:f.uPtr[k+1]]
		val := f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, s := range idx {
			v -= val[i] * t[s]
		}
		t[k] = v / f.uDiag[k]
	}
	// Phase Lᵀ: s[k] = t[k] − Σ_{s>k} L[s,k]·t[s], backward; influence runs
	// along L's rows (edges to smaller steps).
	for _, k := range h.list1 {
		if t[k] == 0 {
			continue
		}
		h.stack, h.list2, ok = dfsReach(k, f.lRowPtr, f.lRowIdx, h.mark2, h.epoch, h.stack, h.list2, reachCap)
		if !ok {
			for _, s := range h.list1 {
				t[s] = 0
			}
			return false
		}
	}
	sortSteps(h.list2)
	for p := len(h.list2) - 1; p >= 0; p-- {
		k := h.list2[p]
		v := t[k]
		idx := f.lIdx[f.lPtr[k]:f.lPtr[k+1]]
		val := f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, s := range idx {
			v -= val[i] * t[s]
		}
		t[k] = v
	}
	for i := range out {
		out[i] = 0
	}
	// Union of the two phase lists (phase 2 may revisit phase-1 steps):
	// write out first, then clear, so duplicates never read a cleared slot.
	for _, k := range h.list1 {
		if v := t[k]; v != 0 {
			out[f.pivRow[k]] = v
			if support != nil {
				*support = append(*support, int32(f.pivRow[k]))
			}
		}
	}
	for _, k := range h.list2 {
		if h.mark1[k] == h.epoch {
			continue // already handled via list1
		}
		if v := t[k]; v != 0 {
			out[f.pivRow[k]] = v
			if support != nil {
				*support = append(*support, int32(f.pivRow[k]))
			}
		}
	}
	for _, k := range h.list1 {
		t[k] = 0
	}
	for _, k := range h.list2 {
		t[k] = 0
	}
	return true
}

// buildRowGraphs builds, once per factorization, the row-major nonzero
// patterns of L and U and the step of every basis position: the transposed
// solve's influence runs along factor rows, not the stored columns. Only the
// patterns are kept — a reach is a set, sorted before the numeric sweep, so
// neither values nor edge order can change a result.
func (f *luFactors) buildRowGraphs() {
	if f.rowsOK {
		return
	}
	f.stepOf = resize(f.stepOf, f.m)
	for k := 0; k < f.m; k++ {
		f.stepOf[f.colOrder[k]] = int32(k)
	}
	f.lRowPtr, f.lRowIdx = transposePattern(f.m, f.lPtr, f.lIdx, f.lRowPtr, f.lRowIdx)
	f.uRowPtr, f.uRowIdx = transposePattern(f.m, f.uPtr, f.uIdx, f.uRowPtr, f.uRowIdx)
	f.rowsOK = true
}

// transposePattern returns the row-major pattern of the m column-stored
// index lists idx[ptr[k]:ptr[k+1]], reusing rowPtr and rowIdx. The scatter
// advances rowPtr[s] to the end of row s; one shift restores the starts.
func transposePattern(m int, ptr, idx, rowPtr, rowIdx []int32) ([]int32, []int32) {
	rowPtr = resize(rowPtr, m+1)
	for i := range rowPtr {
		rowPtr[i] = 0
	}
	for _, s := range idx {
		rowPtr[s+1]++
	}
	for i := 0; i < m; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rowIdx = resize(rowIdx, len(idx))
	for k := 0; k < m; k++ {
		for t := ptr[k]; t < ptr[k+1]; t++ {
			s := idx[t]
			rowIdx[rowPtr[s]] = int32(k)
			rowPtr[s]++
		}
	}
	copy(rowPtr[1:], rowPtr[:m])
	rowPtr[0] = 0
	return rowPtr, rowIdx
}
