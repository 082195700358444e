package lp

import (
	"fmt"
	"math"
)

// CheckDuals installs a check of the incrementally updated duals until the
// returned function is called: whenever the pivot loop is about to replace
// them by a full btran, it computes the exact duals of the same basis and
// records the largest |Δy_i|/(1+|y_i|). The solve itself goes on from the
// updated duals, untouched. The returned function uninstalls the check and
// reports the number of checks, the largest relative error and the first
// check that exceeded tol. Tests that use it must not run in parallel.
func CheckDuals(tol float64) func() (checks int, worst float64, err error) {
	var (
		n        int
		worst    float64
		exceeded error
		y, d     []float64
	)
	dualHook = func(st *revisedState) {
		n++
		y = append(y[:0], st.y...)
		d = append(d[:0], st.d...) // btran borrows d as scratch
		st.btran()
		for i, exact := range st.y {
			rel := math.Abs(y[i]-exact) / (1 + math.Abs(exact))
			worst = max(worst, rel)
			if rel > tol && exceeded == nil {
				exceeded = fmt.Errorf("check %d: y[%d] = %v updated, %v exact", n, i, y[i], exact)
			}
		}
		copy(st.y, y)
		copy(st.d, d)
	}
	return func() (int, float64, error) {
		dualHook = nil
		return n, worst, exceeded
	}
}
