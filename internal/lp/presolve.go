package lp

import (
	"math"
	"sort"
)

// Presolve reductions for packing LPs. The benchmark LP generated from
// EBSN instances carries a lot of removable weight: event rows so loose
// they can never bind (every bidder taking the event still fits), columns
// through zero-capacity rows (forced to 0), and — on the Meetup-like
// workload — duplicate singleton columns. Reductions preserve the optimal
// objective exactly, and Unreduce maps a solution of the reduced problem
// back to the original variable space.

// Presolved is the outcome of Reduce: the smaller problem plus the mappings
// needed to translate solutions back.
type Presolved struct {
	// Problem is the reduced LP.
	Problem *Problem
	// colMap[j] is the original column index of reduced column j.
	colMap []int
	// rowMap[i] is the original row index of reduced row i.
	rowMap []int
	// forcedZero lists original columns fixed at 0 (they crossed a
	// zero-capacity row).
	forcedZero []int
	orig       *Problem // original problem, for the dual completion
	origCols   int
	origRows   int
}

// Stats reports what Reduce removed.
type PresolveStats struct {
	DroppedRows   int // rows that can never bind
	ForcedColumns int // columns fixed to zero by empty rows
	RemainingRows int
	RemainingCols int
}

// Reduce applies safe packing-LP reductions:
//
//  1. columns touching a row with b_i = 0 are fixed to 0 and removed;
//  2. "bounding" rows — those with b_i ≤ 1 — are kept whenever any column
//     still crosses them (they are the source of the implied per-column
//     upper bounds u_j = min_k b_k, so dropping them could unbound
//     the problem); empty rows are always dropped;
//  3. a non-bounding row is dropped when even every crossing column at its
//     implied bound cannot violate it: Σ_j u_j ≤ b_i, with u_j taken
//     over bounding rows only (∞, hence undroppable, if a column crosses
//     no bounding row).
//
// For the benchmark LP the bounding rows are exactly the user rows, so the
// reduction drops event rows so loose they can never bind. The reduced
// problem has the same optimal value as the original.
func Reduce(p *Problem) (*Presolved, PresolveStats, error) {
	if err := p.Check(); err != nil {
		return nil, PresolveStats{}, err
	}
	m, n := p.NumRows, p.NumCols()

	// Pass 1: force columns through b=0 rows to zero.
	keepCol := make([]bool, n)
	var forced []int
	for j := 0; j < n; j++ {
		keepCol[j] = true
		for _, r := range p.Col(j) {
			if p.B[r] == 0 {
				keepCol[j] = false
				forced = append(forced, j)
				break
			}
		}
	}

	// Implied upper bounds u_j = min b_k over the bounding rows (b ≤ 1) that
	// will be kept.
	const inf = math.MaxFloat64
	ubound := make([]float64, n)
	for j := range ubound {
		ubound[j] = inf
	}
	hasCols := make([]bool, m)
	for j := 0; j < n; j++ {
		if !keepCol[j] {
			continue
		}
		for _, r := range p.Col(j) {
			hasCols[r] = true
			if p.B[r] <= 1 && p.B[r] < ubound[j] {
				ubound[j] = p.B[r]
			}
		}
	}

	// Pass 2: decide rows. Bounding rows stay while non-empty; other rows
	// go when their maximum attainable mass cannot exceed b.
	keepRow := make([]bool, m)
	mass := make([]float64, m)
	unbounded := make([]bool, m)
	for j := 0; j < n; j++ {
		if !keepCol[j] {
			continue
		}
		for _, r := range p.Col(j) {
			if p.B[r] <= 1 {
				continue // bounding rows are handled by hasCols
			}
			if ubound[j] == inf {
				unbounded[r] = true
			} else {
				mass[r] += ubound[j]
			}
		}
	}
	dropped := 0
	for i := 0; i < m; i++ {
		if !hasCols[i] {
			keepRow[i] = false // empty row can never be violated
		} else if p.B[i] <= 1 {
			keepRow[i] = true // bounding row
		} else {
			keepRow[i] = unbounded[i] || mass[i] > p.B[i]
		}
		if !keepRow[i] {
			dropped++
		}
	}

	// Rebuild.
	ps := &Presolved{origCols: n, origRows: m, forcedZero: forced, orig: p}
	newRow := make([]int32, m)
	for i := 0; i < m; i++ {
		newRow[i] = -1
		if keepRow[i] {
			newRow[i] = int32(len(ps.rowMap))
			ps.rowMap = append(ps.rowMap, i)
		}
	}
	red := &Problem{NumRows: len(ps.rowMap)}
	keptCols, keptNNZ := 0, 0
	for j := 0; j < n; j++ {
		if keepCol[j] {
			keptCols++
			keptNNZ += p.ColPtr[j+1] - p.ColPtr[j]
		}
	}
	red.Reserve(keptCols, keptNNZ)
	for _, i := range ps.rowMap {
		red.B = append(red.B, p.B[i])
	}
	red.ColPtr = append(red.ColPtr, 0)
	for j := 0; j < n; j++ {
		if !keepCol[j] {
			continue
		}
		for _, r := range p.Col(j) {
			if nr := newRow[r]; nr >= 0 {
				red.Rows = append(red.Rows, nr)
			}
		}
		red.ColPtr = append(red.ColPtr, len(red.Rows))
		red.C = append(red.C, p.C[j])
		ps.colMap = append(ps.colMap, j)
	}
	ps.Problem = red
	stats := PresolveStats{
		DroppedRows:   dropped,
		ForcedColumns: len(forced),
		RemainingRows: red.NumRows,
		RemainingCols: red.NumCols(),
	}
	return ps, stats, nil
}

// Unreduce maps a solution of the reduced problem back to the original
// variable and row spaces. Forced columns get 0 and never-binding dropped
// rows get dual 0; dropped b=0 rows then get their duals raised just enough
// to cover the reduced cost of the forced columns crossing them — b_i = 0,
// so the completion changes neither bᵀy nor complementary slackness, and
// the returned solution passes Verify against the ORIGINAL problem.
func (ps *Presolved) Unreduce(sol *Solution) *Solution {
	x := make([]float64, ps.origCols)
	for j, v := range sol.X {
		x[ps.colMap[j]] = v
	}
	y := make([]float64, ps.origRows)
	for i, v := range sol.Y {
		y[ps.rowMap[i]] = v
	}
	for _, j := range ps.forcedZero {
		rows := ps.orig.Col(j)
		red := ps.orig.C[j]
		for _, r := range rows {
			red -= y[r]
		}
		if red <= 0 {
			continue
		}
		for _, r := range rows {
			if ps.orig.B[r] == 0 {
				y[r] += red
				break
			}
		}
	}
	return &Solution{
		Status:     sol.Status,
		X:          x,
		Y:          y,
		Objective:  sol.Objective,
		Iterations: sol.Iterations,
	}
}

// SolveReduced is a convenience wrapper: Reduce, solve with the given
// solver (nil = auto), Unreduce.
func SolveReduced(p *Problem, s Backend) (*Solution, PresolveStats, error) {
	ps, stats, err := Reduce(p)
	if err != nil {
		return nil, stats, err
	}
	var sol *Solution
	if s == nil {
		sol, err = Solve(ps.Problem)
	} else {
		sol, err = s.Solve(ps.Problem)
	}
	if err != nil {
		return nil, stats, err
	}
	return ps.Unreduce(sol), stats, nil
}

// DeduplicateColumns folds exact duplicate columns (the same set of rows)
// keeping only the highest-objective representative of each class — for a
// maximization packing LP a dominated duplicate can never be needed
// strictly, because any mass on it can move to the representative without
// changing feasibility and without decreasing the objective. Returns the
// reduced problem and repr[j] = index of j's representative in the original
// problem (repr[j] == j for kept columns).
func DeduplicateColumns(p *Problem) (*Problem, []int) {
	n := p.NumCols()
	best := map[string]int{} // signature -> original column with max c
	sigOf := make([]string, n)
	for j := 0; j < n; j++ {
		sigOf[j] = columnSignature(p.Col(j))
		if k, ok := best[sigOf[j]]; !ok || p.C[j] > p.C[k] {
			best[sigOf[j]] = j
		}
	}
	repr := make([]int, n)
	kept := make([]int, 0, len(best))
	for j := 0; j < n; j++ {
		repr[j] = best[sigOf[j]]
	}
	for _, j := range best {
		kept = append(kept, j)
	}
	sort.Ints(kept)
	out := &Problem{NumRows: p.NumRows, B: p.B}
	nnz := 0
	for _, j := range kept {
		nnz += p.ColPtr[j+1] - p.ColPtr[j]
	}
	out.Reserve(len(kept), nnz)
	for _, j := range kept {
		out.addColumn32(p.C[j], p.Col(j))
	}
	return out, repr
}

// columnSignature canonically encodes a column's set of rows.
func columnSignature(rows []int32) string {
	rs := append([]int32(nil), rows...)
	sort.Slice(rs, func(a, b int) bool { return rs[a] < rs[b] })
	buf := make([]byte, 0, len(rs)*4)
	for _, r := range rs {
		buf = appendInt(buf, int(r))
		buf = append(buf, ';')
	}
	return string(buf)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
