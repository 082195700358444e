package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// dotAlpha is the column dot product α_j = βᵀa_j: every entry of the
// column, in its stored order, from a zero start.
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

// checkPivotRows forces both α passes on st's β and asserts that they agree
// bit for bit on every variable, whatever order st's columns list their
// rows in: the scatter's α, zero where it did not reach, against the
// sweep's.
func checkPivotRows(t *testing.T, st *revisedState) {
	t.Helper()
	scattered := make([]float64, st.n+st.m)
	for _, j := range st.scatterPivotRow() {
		scattered[j] = st.alphaVec[j]
	}
	st.sweepPivotRow()
	for j, want := range scattered {
		if got := st.alphaVec[j]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("variable %d: swept α %v (%#x), scattered %v (%#x)",
				j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// uniqueDualWinner returns the column priceDual's ratio test must name on
// the pivot row in st.alphaVec, which must cover every variable (the
// sweep's), and the reduced costs in st.rvec, when that column does not
// depend on the order the test visits its candidates in: a lone feasible-tier
// minimum ratio with every other feasible-tier ratio more than 2·pivotTol
// above it (the tie band, plus room for rounding), or, with no feasible-tier
// candidate, a lone steepest α among the dual infeasible ones. ok is false
// when a tie decides.
func uniqueDualWinner(st *revisedState) (q int, ok bool) {
	best, bestRatio, second := -1, 0.0, math.Inf(1)
	relax, relaxTie := -1, false
	for j, alpha := range st.alphaVec {
		if alpha >= -pivotTol || st.posOf[j] != -1 {
			continue
		}
		red := st.rvec[j]
		if red > reducedTol {
			switch {
			case relax < 0 || alpha < st.alphaVec[relax]:
				relax, relaxTie = j, false
			case alpha == st.alphaVec[relax]:
				relaxTie = true
			}
			continue
		}
		switch ratio := min(red, 0) / alpha; {
		case best < 0:
			best, bestRatio = j, ratio
		case ratio < bestRatio:
			best, bestRatio, second = j, ratio, bestRatio
		default:
			second = min(second, ratio)
		}
	}
	if best >= 0 {
		return best, second > bestRatio+2*pivotTol
	}
	return relax, !relaxTie
}

// checkPriceDual draws reduced costs into st.rvec and asserts that
// priceDual's ratio test names the same column, with the same dual step γ
// bit for bit, through either α pass, and the column uniqueDualWinner
// names. The test breaks a tie within pivotTol by visiting order, and the
// scatter visits its candidates in the order it reaches them where the
// sweep ascends, so the check runs where the winner is unique; the draws are
// continuous, so that is the common case.
func checkPriceDual(t *testing.T, rng *xrand.RNG, st *revisedState) {
	t.Helper()
	saved := append([]float64(nil), st.rvec...)
	defer copy(st.rvec, saved)
	for j := range st.rvec {
		switch u := rng.Float64(); {
		case u < 0.002: // within tolerance of dual feasible: ratio 0
			st.rvec[j] = rng.Float64() * reducedTol
		case u < 0.1: // dual infeasible: the second tier
			st.rvec[j] = 1 + rng.Float64()
		default:
			st.rvec[j] = -rng.Float64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
	qScatter := st.dualRatio(st.scatterPivotRow())
	gScatter := st.dualGamma
	st.sweepPivotRow()
	want, unique := uniqueDualWinner(st)
	if !unique {
		return
	}
	qSweep := st.dualRatio(nil)
	gSweep := st.dualGamma
	if qScatter != want || qSweep != want {
		t.Fatalf("dual ratio test: scatter chose %d, sweep %d, unique winner %d", qScatter, qSweep, want)
	}
	if want >= 0 && math.Float64bits(gScatter) != math.Float64bits(gSweep) {
		t.Fatalf("dual step of %d: scatter γ %v (%#x), sweep γ %v (%#x)",
			want, gScatter, math.Float64bits(gScatter), gSweep, math.Float64bits(gSweep))
	}
}

// FuzzDevexPivotRow checks the pivot row and the pricing shortcuts of Devex
// and the dual repair against each other and test-local oracles, on random
// packing LPs whose columns list their rows in random order. For every
// random β, sparse or dense:
//   - the scatter's and the sweep's α agree bit for bit on every variable;
//   - on the LP's ascending-row copy, the scatter's α equals the column dot
//     product bit for bit on every variable;
//   - on random reduced costs, priceDual's ratio test names the same column
//     and the same dual step bits through either pass, wherever its winner
//     does not hang on a tie (checkPriceDual);
//   - after every update of a random pivot sequence (and interleaved exact
//     refreshes), the block-cached priceDevex names the same variable as a
//     flat first-strict-maximum scan, at workers 1 and 2, and the two
//     worker counts name the same sequence.
//
// Some instances are wide enough (> 2·devexGrain variables) that a full
// rescan runs on the worker pool; small ones make dense pivot rows, and so
// the swept update, common.
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
		p := randomPacking(rng, g, k, 4)
		asc := newRevisedState(ascendingRows(p), true)
		asc.beta = make([]float64, asc.m)
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
				checkPivotRows(t, st)
				copy(asc.beta, st.beta)
				checkScatter(t, asc)
				checkPriceDual(t, rng, st)

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
