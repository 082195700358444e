package lp

// Dense is a full-tableau primal simplex solver. It keeps the entire
// (m+1)×(n+m+1) tableau in memory, which makes every pivot O(m·(n+m)) but
// the implementation short and auditable. It is the test oracle the
// revised simplex is cross-checked against, and it solves the unperturbed
// LP. It shares the production solver's tolerances and stall limit.
type Dense struct {
	// MaxIter bounds the number of pivots; 0 means an automatic limit of
	// 10000 + 200·(m+n).
	MaxIter int
}

// Solve runs the primal simplex on p from the all-slack basis.
func (s *Dense) Solve(p *Problem) (*Solution, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	m, n := p.NumRows, p.NumCols()
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 10000 + 200*(m+n)
	}

	width := n + m + 1 // structural + slack + rhs
	rhs := n + m
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, width)
	}
	for j := 0; j < n; j++ {
		for _, r := range p.Col(j) {
			t[r][j] = 1
		}
	}
	for i := 0; i < m; i++ {
		t[i][n+i] = 1
		t[i][rhs] = p.B[i]
	}
	obj := t[m]
	for j := 0; j < n; j++ {
		obj[j] = -p.C[j]
	}

	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	iters := 0
	degenerate := 0
	bland := false
	for ; iters < maxIter; iters++ {
		// Pricing: entering column q with negative objective-row entry.
		q := -1
		if bland {
			for j := 0; j < n+m; j++ {
				if obj[j] < -reducedTol {
					q = j
					break
				}
			}
		} else {
			best := -reducedTol
			for j := 0; j < n+m; j++ {
				if obj[j] < best {
					best = obj[j]
					q = j
				}
			}
		}
		if q < 0 {
			return s.extract(p, t, basis, iters)
		}

		// Ratio test: leaving row r.
		r := -1
		var theta float64
		for i := 0; i < m; i++ {
			a := t[i][q]
			if a <= pivotTol {
				continue
			}
			ratio := t[i][rhs] / a
			switch {
			case r < 0 || ratio < theta-pivotTol:
				r, theta = i, ratio
			case ratio <= theta+pivotTol:
				// tie: Bland takes the smallest basic variable index,
				// Dantzig the numerically largest pivot.
				if bland {
					if basis[i] < basis[r] {
						r, theta = i, ratio
					}
				} else if a > t[r][q] {
					r, theta = i, ratio
				}
			}
		}
		if r < 0 {
			return &Solution{Status: Unbounded, Iterations: iters}, ErrUnbounded
		}

		if theta <= pivotTol {
			degenerate++
			if degenerate >= stallLimit {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}

		// Pivot on (r, q).
		piv := t[r][q]
		rowR := t[r]
		inv := 1 / piv
		for j := 0; j < width; j++ {
			rowR[j] *= inv
		}
		for i := 0; i <= m; i++ {
			if i == r {
				continue
			}
			f := t[i][q]
			if f == 0 {
				continue
			}
			rowI := t[i]
			for j := 0; j < width; j++ {
				rowI[j] -= f * rowR[j]
			}
			rowI[q] = 0 // exact zero, avoids round-off residue
		}
		basis[r] = q
	}
	return &Solution{Status: IterLimit, Iterations: iters}, ErrIterLimit
}

// extract reads the optimal primal and dual solutions out of the final
// tableau.
func (s *Dense) extract(p *Problem, t [][]float64, basis []int, iters int) (*Solution, error) {
	m, n := p.NumRows, p.NumCols()
	rhs := n + m
	x := make([]float64, n)
	for i, bj := range basis {
		if bj < n {
			v := t[i][rhs]
			if v < 0 && v > -1e-9 {
				v = 0 // round-off guard
			}
			x[bj] = v
		}
	}
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		v := t[m][n+i]
		if v < 0 && v > -1e-9 {
			v = 0
		}
		y[i] = v
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.C[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Y: y, Objective: objVal, Iterations: iters}, nil
}
