package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// dotAlpha is the column dot product α_j = βᵀa_j the row scatter replaces:
// every entry of the column, in its stored order, from a zero start.
func dotAlpha(st *revisedState, j int) float64 {
	if j >= st.n {
		return st.beta[j-st.n]
	}
	var alpha float64
	for _, r := range st.p.Col(j) {
		alpha += st.beta[r]
	}
	return alpha
}

// flatDevexArgmax is priceDevex without the block cache: the first strict
// maximum of r²/weight over every variable with positive reduced cost.
func flatDevexArgmax(st *revisedState) int {
	best, bestScore := -1, 0.0
	for j, r := range st.rvec {
		if r <= reducedTol {
			continue
		}
		if score := r * r / st.weights[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// randomBeta overwrites st.beta with nnz random nonzeros. Values come from a
// small set half the time, so sums cancel exactly to zero on some columns.
func randomBeta(rng *xrand.RNG, st *revisedState, nnz int) {
	for i := range st.beta {
		st.beta[i] = 0
	}
	small := []float64{1, -1, 0.5, -0.5, 3, -3}
	for k := 0; k < nnz; k++ {
		v := (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		if rng.Bool(0.5) {
			v = small[rng.Intn(len(small))]
		}
		st.beta[rng.Intn(st.m)] = v
	}
}

// checkScatter asserts that scatterPivotRow's α equals the column dot
// product bit for bit on every variable, reached or not.
func checkScatter(t *testing.T, st *revisedState) {
	t.Helper()
	reached := make(map[int32]bool)
	for _, j := range st.scatterPivotRow() {
		reached[j] = true
	}
	for j := 0; j < st.n+st.m; j++ {
		got := 0.0
		if reached[int32(j)] {
			got = st.alphaVec[j]
		}
		if want := dotAlpha(st, j); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("variable %d: scattered α %v (%#x), column dot %v (%#x)",
				j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzDevexPivotRow checks the two shortcuts a Devex pivot takes against
// test-local oracles, on random packing LPs whose columns list their rows
// in ascending order:
//   - the row scatter's α equals the column dot product bit for bit on
//     every variable, for random sparse and dense β;
//   - after every update of a random pivot sequence (and interleaved exact
//     refreshes), the block-cached priceDevex names the same variable as a
//     flat first-strict-maximum scan, at workers 1 and 2, and the two
//     worker counts name the same sequence.
//
// Some instances are wide enough (> 2·devexGrain variables) that a full
// rescan runs on the worker pool; small ones make dense pivot rows, and so
// the column-pass update, common.
func FuzzDevexPivotRow(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(7), uint8(120))
	f.Add(int64(-3), uint8(255))
	f.Add(int64(12), uint8(90))
	f.Add(int64(51), uint8(74))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := xrand.New(seed)
		var g, k int
		switch rng.Intn(4) {
		case 0: // m ≤ 7: every nonzero pivot row is dense
			g, k = 1+rng.Intn(4), 2+rng.Intn(2)
		case 1: // > 2·devexGrain variables: full rescans are pooled
			g, k = 3000+rng.Intn(1000), 2+rng.Intn(40)
		default:
			g, k = 3+rng.Intn(200), 2+rng.Intn(40)
		}
		p := ascendingRows(randomPacking(rng, g, k, 4))
		var priced [2][]int
		for wi, workers := range []int{1, 2} {
			rng := xrand.New(seed ^ 0x5eed)
			st := newRevisedState(p, true)
			if err := st.refactorize(); err != nil {
				t.Fatal(err)
			}
			(&Revised{Workers: workers, tuning: tuning{parallelThreshold: 1}}).configure(st)
			st.initDevex(false)
			st.beta = make([]float64, st.m)
			price := func(when string) {
				t.Helper()
				q := st.priceDevex()
				if want := flatDevexArgmax(st); q != want {
					t.Fatalf("workers=%d %s: cached pricing chose %d, flat scan %d", workers, when, q, want)
				}
				priced[wi] = append(priced[wi], q)
			}
			price("initial")
			for step := 0; step < int(steps); step++ {
				nnz := 1 + rng.Intn(max(1, st.m/8))
				if rng.Bool(0.3) {
					nnz = st.m/8 + 1 + rng.Intn(st.m)
				}
				randomBeta(rng, st, nnz)
				checkScatter(t, st)

				// One pivot on a random nonbasic column at a random
				// well-sized FTRAN entry, applied the way the pivot loop
				// applies it.
				q := rng.Intn(st.n + st.m)
				if st.posOf[q] >= 0 {
					continue
				}
				st.ftran(q)
				r, seen := -1, 0
				for i, v := range st.d {
					if math.Abs(v) >= 0.1 {
						if seen++; rng.Intn(seen) == 0 {
							r = i
						}
					}
				}
				if r < 0 {
					continue
				}
				st.updateDevex(q, r)
				leaving := st.basis[r]
				st.posOf[leaving] = -1
				st.basis[r] = q
				st.posOf[q] = r
				st.cB[r] = st.objCoef(q)
				st.pushEta(r)
				if len(st.etas) >= 16 {
					if err := st.refactorize(); err != nil {
						t.Skipf("random pivots left a singular basis: %v", err)
					}
					st.refreshReducedCosts()
				} else if rng.Bool(0.05) {
					st.refreshReducedCosts()
				}
				price("after update")
			}
		}
		if len(priced[0]) != len(priced[1]) {
			t.Fatalf("workers 1 and 2 priced %d and %d times", len(priced[0]), len(priced[1]))
		}
		for i := range priced[0] {
			if priced[0][i] != priced[1][i] {
				t.Fatalf("pricing %d: workers 1 chose %d, workers 2 chose %d", i, priced[0][i], priced[1][i])
			}
		}
	})
}
