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
		st.yExact = false // y holds the updated duals again
	}
	return func() (int, float64, error) {
		dualHook = nil
		return n, worst, exceeded
	}
}

// CheckCarriedDuals installs a check of the duals btran carries until the
// returned function is called: whenever btran returns early because y is
// already exact, it recomputes y from the LU, the eta file and c_B and
// records the first entry whose bits differ. The solve goes on from the
// carried duals, untouched. The returned function uninstalls the check and
// reports the number of checks and the first mismatch. Tests that use it
// must not run in parallel.
func CheckCarriedDuals() func() (checks int, err error) {
	var (
		n        int
		mismatch error
		y, d     []float64
	)
	btranHook = func(st *revisedState) {
		n++
		y = append(y[:0], st.y...)
		d = append(d[:0], st.d...) // btran borrows d as scratch
		st.yExact = false
		st.btran()
		for i, exact := range st.y {
			if math.Float64bits(y[i]) != math.Float64bits(exact) && mismatch == nil {
				mismatch = fmt.Errorf("check %d: y[%d] = %v carried, %v recomputed", n, i, y[i], exact)
			}
		}
		copy(st.y, y)
		copy(st.d, d)
	}
	return func() (int, error) {
		btranHook = nil
		return n, mismatch
	}
}
