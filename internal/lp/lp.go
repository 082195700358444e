// Package lp is a self-contained linear-programming substrate replacing the
// Gurobi dependency of the original paper.
//
// It solves packing-form linear programs
//
//	max  cᵀx   subject to   Ax ≤ b,  x ≥ 0,  b ≥ 0
//
// with A a 0/1 matrix, which is exactly the shape of the IGEPA benchmark LP
// (1)-(4): user rows (Σ_S x_{u,S} ≤ 1) and event rows (Σ x ≤ cv). A Problem
// therefore stores only where its ones are (see Problem); no coefficient is
// stored. The explicit upper bounds x ≤ 1 of (4) are implied by the user
// rows, so they are not represented.
//
// One simplex solves every problem: Revised, a revised primal simplex that
// maintains the basis as a sparse LU factorization with product-form (eta)
// updates and periodic refactorization, at every size up to paper scale
// (m = |U|+|V| up to ≈10⁴ rows). SolveConfig runs it once; Solver keeps its
// state for warm re-solves. It starts from the all-slack basis (feasible
// because b ≥ 0, so no phase-1 is needed), prices with partial Dantzig or
// Devex, and falls back to Bland's rule after a run of degenerate pivots to
// guarantee termination. Verify certifies a solution's optimality from
// first principles (primal feasibility, dual feasibility, and strong
// duality), independent of solver internals; the tests cross-check it
// against a full-tableau oracle that lives only in the test files.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Column is one 0/1 column in assembly form: Rows lists the rows where the
// column has coefficient 1, each at most once. Problems do not store
// columns this way (see Problem); Column is the currency of NewProblem,
// ProblemDelta.AddCols and hand-written fixtures.
type Column struct {
	Rows []int
}

// Problem is a packing-form LP: max cᵀx s.t. Ax ≤ b, x ≥ 0 with b ≥ 0, and
// A a 0/1 matrix.
//
// A is stored in flat compressed-sparse-column (CSC) form with no values:
// column j has coefficient 1 in rows Rows[ColPtr[j]:ColPtr[j+1]] and 0
// elsewhere, 4 bytes per nonzero. A column may list its rows in any order
// (every LP the planning pipeline builds lists them ascending; the solver
// builds its pivot rows row-ascending whatever the order, see pivotRow), but
// must list each row at most once: a 0/1 column either crosses a row or does
// not, so Check rejects a repeat.
type Problem struct {
	NumRows int       // m, number of constraints
	C       []float64 // objective coefficients, len n
	B       []float64 // right-hand side, len m, non-negative

	ColPtr []int   // len n+1 (nil ⇔ no columns); ColPtr[0] == 0
	Rows   []int32 // row indices of the unit entries, column-major
}

// NumCols returns n, the number of structural variables.
func (p *Problem) NumCols() int {
	if len(p.ColPtr) == 0 {
		return 0
	}
	return len(p.ColPtr) - 1
}

// NNZ returns the number of stored nonzeros.
func (p *Problem) NNZ() int { return len(p.Rows) }

// Col returns the rows where column j has coefficient 1, as a view into the
// shared CSC array. Callers must not modify the returned slice.
func (p *Problem) Col(j int) []int32 {
	return p.Rows[p.ColPtr[j]:p.ColPtr[j+1]]
}

// Reserve grows the column storage to hold at least cols columns and nnz
// nonzeros, so a builder that knows its final size pays one allocation per
// backing array.
func (p *Problem) Reserve(cols, nnz int) {
	if cap(p.ColPtr) < cols+1 {
		cp := make([]int, len(p.ColPtr), cols+1)
		copy(cp, p.ColPtr)
		p.ColPtr = cp
	}
	if cap(p.Rows) < nnz {
		r := make([]int32, len(p.Rows), nnz)
		copy(r, p.Rows)
		p.Rows = r
	}
	if cap(p.C) < cols {
		c := make([]float64, len(p.C), cols)
		copy(c, p.C)
		p.C = c
	}
}

// AddColumn appends one column with objective coefficient c and unit
// entries in rows, which are copied into the flat storage.
func (p *Problem) AddColumn(c float64, rows []int) {
	if len(p.ColPtr) == 0 {
		p.ColPtr = append(p.ColPtr, 0)
	}
	for _, r := range rows {
		p.Rows = append(p.Rows, int32(r))
	}
	p.ColPtr = append(p.ColPtr, len(p.Rows))
	p.C = append(p.C, c)
}

// NewProblem assembles a CSC Problem from per-column data: the bridge from
// hand-written fixtures and external assembly code to the flat layout.
func NewProblem(numRows int, b []float64, c []float64, cols []Column) *Problem {
	p := &Problem{NumRows: numRows, B: b}
	nnz := 0
	for j := range cols {
		nnz += len(cols[j].Rows)
	}
	p.Reserve(len(cols), nnz)
	for j := range cols {
		p.AddColumn(c[j], cols[j].Rows)
	}
	return p
}

// DuplicateRowError reports a column that lists a row more than once, which
// a 0/1 column cannot mean. Col indexes the problem's columns when Check
// reports it, and ProblemDelta.AddCols when Solver.Resolve does.
type DuplicateRowError struct {
	Col, Row int
}

func (e *DuplicateRowError) Error() string {
	return fmt.Sprintf("lp: column %d lists row %d twice", e.Col, e.Row)
}

// Check validates the problem shape: a well-formed ColPtr, matching lengths,
// row indices in range and listed at most once per column, b ≥ 0 and all
// data finite.
func (p *Problem) Check() error {
	if len(p.C) != p.NumCols() {
		return fmt.Errorf("lp: %d objective coefficients for %d columns", len(p.C), p.NumCols())
	}
	if len(p.B) != p.NumRows {
		return fmt.Errorf("lp: %d rhs entries for %d rows", len(p.B), p.NumRows)
	}
	if len(p.ColPtr) > 0 {
		if p.ColPtr[0] != 0 {
			return fmt.Errorf("lp: ColPtr[0] = %d, want 0", p.ColPtr[0])
		}
		if last := p.ColPtr[len(p.ColPtr)-1]; last != len(p.Rows) {
			return fmt.Errorf("lp: ColPtr ends at %d for %d nonzeros", last, len(p.Rows))
		}
		for j := 1; j < len(p.ColPtr); j++ {
			if p.ColPtr[j] < p.ColPtr[j-1] {
				return fmt.Errorf("lp: ColPtr not monotone at column %d", j-1)
			}
		}
	} else if len(p.Rows) != 0 {
		return fmt.Errorf("lp: %d nonzeros with no ColPtr", len(p.Rows))
	}
	for i, b := range p.B {
		if b < 0 {
			return fmt.Errorf("lp: negative rhs b[%d] = %v (packing form requires b ≥ 0)", i, b)
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("lp: non-finite rhs b[%d]", i)
		}
	}
	seen := make([]int, p.NumRows) // seen[r] = 1 + the last column listing r
	for j := 0; j < p.NumCols(); j++ {
		for _, r := range p.Col(j) {
			if r < 0 || int(r) >= p.NumRows {
				return fmt.Errorf("lp: column %d references row %d of %d", j, r, p.NumRows)
			}
			if seen[r] == j+1 {
				return &DuplicateRowError{Col: j, Row: int(r)}
			}
			seen[r] = j + 1
		}
	}
	for j, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: non-finite objective coefficient c[%d]", j)
		}
	}
	return nil
}

// Status reports how a solve terminated.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Unbounded means the objective can increase without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before optimality.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // primal values, len n
	Y          []float64 // dual row prices, len m (valid when Status == Optimal)
	Objective  float64   // cᵀx
	Iterations int       // simplex pivots performed
}

// ErrUnbounded is returned when the LP is unbounded. (The IGEPA benchmark LP
// is always bounded; seeing this indicates a malformed problem.)
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrIterLimit is returned when the pivot budget is exhausted.
var ErrIterLimit = errors.New("lp: iteration limit reached")

// SolveConfig solves p from scratch with the revised primal simplex, from
// the all-slack basis, with cfg's worker bound and timer sink. It is the
// package's one-shot entry point; the stateful, warm-starting counterpart is
// Solver (solver.go), which runs the same simplex.
//
// To break degeneracy, the simplex raises each right-hand side b_i > 0 by a
// deterministic δ_i ≤ 2·10⁻⁷·(1+b_i) (zero rows stay hard), and the solution
// is optimal for that perturbed LP: feasible for the original within Verify's
// tolerances, with an Objective that can exceed the unperturbed optimum by
// about 3·10⁻⁷ relative on the benchmark LP.
func SolveConfig(p *Problem, cfg Revised) (*Solution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	if sol, done := trivialSolution(p); done {
		return sol, solutionErr(sol)
	}
	st := newRevisedState(p, !cfg.tuning.noPerturb)
	if err := st.refactorize(); err != nil {
		return nil, err
	}
	return cfg.pivot(st, false)
}

// Verify certifies that sol is an optimal solution of p within tolerance
// tol, checking from first principles:
//
//	primal feasibility:  Ax ≤ b + tol,  x ≥ −tol
//	dual feasibility:    y ≥ −tol,  cⱼ − yᵀaⱼ ≤ tol for every column j
//	strong duality:      |cᵀx − bᵀy| ≤ tol·(1+|cᵀx|)
//
// Any LP solution passing these checks is optimal regardless of how it was
// produced, which is how the tests cross-validate the two simplex
// implementations.
func Verify(p *Problem, sol *Solution, tol float64) error {
	if sol.Status != Optimal {
		return fmt.Errorf("lp: cannot verify non-optimal status %v", sol.Status)
	}
	if len(sol.X) != p.NumCols() || len(sol.Y) != p.NumRows {
		return fmt.Errorf("lp: solution shape mismatch")
	}
	ax := make([]float64, p.NumRows)
	obj := 0.0
	for j := 0; j < p.NumCols(); j++ {
		x := sol.X[j]
		if x < -tol {
			return fmt.Errorf("lp: x[%d] = %v negative", j, x)
		}
		obj += p.C[j] * x
		for _, r := range p.Col(j) {
			ax[r] += x
		}
	}
	for i := 0; i < p.NumRows; i++ {
		if ax[i] > p.B[i]+tol*(1+math.Abs(p.B[i])) {
			return fmt.Errorf("lp: row %d violated: %v > %v", i, ax[i], p.B[i])
		}
		if sol.Y[i] < -tol {
			return fmt.Errorf("lp: dual y[%d] = %v negative", i, sol.Y[i])
		}
	}
	for j := 0; j < p.NumCols(); j++ {
		red := p.C[j]
		for _, r := range p.Col(j) {
			red -= sol.Y[r]
		}
		if red > tol*(1+math.Abs(p.C[j])) {
			return fmt.Errorf("lp: column %d has positive reduced cost %v", j, red)
		}
	}
	if math.Abs(obj-sol.Objective) > tol*(1+math.Abs(obj)) {
		return fmt.Errorf("lp: reported objective %v but cᵀx = %v", sol.Objective, obj)
	}
	by := 0.0
	for i, y := range sol.Y {
		by += p.B[i] * y
	}
	if math.Abs(obj-by) > tol*(1+math.Abs(obj)) {
		return fmt.Errorf("lp: duality gap: cᵀx = %v, bᵀy = %v", obj, by)
	}
	return nil
}
