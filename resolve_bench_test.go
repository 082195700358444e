package igepa_test

// BenchmarkWarmResolve and the pinned warm-vs-cold objective test: the
// acceptance point of the persistent solver. The fixture is the |U|=500
// Table I benchmark LP; the delta re-bids 5% of the users (every 20th user
// drops their last bid and re-enumerates), toggling between the original
// and mutated instance so every benchmark iteration re-solves a real
// column-churn delta from the previous basis.

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// enumerateSets runs the admissible-set enumeration for every user of the
// instance (single-threaded; fixture setup only).
func enumerateSets(in *model.Instance) [][]admissible.Set {
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	wc := in.Weights()
	sets := make([][]admissible.Set, in.NumUsers())
	for u := range sets {
		usr := &in.Users[u]
		w := func(v int) float64 { return wc.Of(u, v) }
		sets[u] = admissible.Enumerate(usr.Bids, usr.Capacity, conf, w, admissible.Config{}).Sets
	}
	return sets
}

// warmFixture holds the two bid states of the |U|=500 point and the deltas
// that toggle the LP between them.
type warmFixture struct {
	probA *lp.Problem // original instance's benchmark LP

	dFirstToB lp.ProblemDelta // A (original column order) -> B
	dTailToA  lp.ProblemDelta // B (changed users at the tail) -> A
	dTailToB  lp.ProblemDelta // A (changed users at the tail) -> B
}

// setColumns converts one user's admissible sets to LP delta columns.
func setColumns(u, numUsers int, sets []admissible.Set, d *lp.ProblemDelta) {
	for _, s := range sets {
		rows := make([]int, 0, len(s.Events)+1)
		rows = append(rows, u)
		for _, v := range s.Events {
			rows = append(rows, numUsers+v)
		}
		d.AddCols = append(d.AddCols, lp.Column{Rows: rows})
		d.AddC = append(d.AddC, s.Weight)
	}
}

// cloneLP deep-copies p. lp.Solver.Solve adopts the problem it is given and
// every Resolve edits it in place, so a fixture problem that is solved more
// than once, or read after the solve, goes to the solver as a clone.
func cloneLP(p *lp.Problem) *lp.Problem {
	return &lp.Problem{
		NumRows: p.NumRows,
		B:       append([]float64(nil), p.B...),
		C:       append([]float64(nil), p.C...),
		ColPtr:  append([]int(nil), p.ColPtr...),
		Rows:    append([]int32(nil), p.Rows...),
	}
}

func buildWarmFixture(tb testing.TB) *warmFixture {
	return buildWarmFixtureAt(tb, 500, 100, 20)
}

// buildWarmFixtureAt builds the toggle fixture for an arbitrary instance
// size: users/events set the synthetic workload's dimensions, and every
// stride-th user is re-bid by the delta (stride 20 → 5% of users, stride
// 10 → 10%).
func buildWarmFixtureAt(tb testing.TB, users, events, stride int) *warmFixture {
	tb.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1, NumUsers: users, NumEvents: events})
	if err != nil {
		tb.Fatal(err)
	}
	nu := in.NumUsers()
	setsA := enumerateSets(in)

	// Variant B: every stride-th user drops their first bid.
	var changed []int
	for u := 0; u < nu; u += stride {
		if len(in.Users[u].Bids) > 1 {
			changed = append(changed, u)
		}
	}
	inB := &model.Instance{
		Events: in.Events, Users: append([]model.User(nil), in.Users...),
		Conflicts: in.Conflicts, Interest: in.Interest, Beta: in.Beta,
	}
	for _, u := range changed {
		inB.Users[u].Bids = append([]int(nil), in.Users[u].Bids[1:]...)
	}
	setsB := enumerateSets(inB)

	probA, ownerA := core.BuildBenchmarkLP(in, setsA)
	f := &warmFixture{probA: probA}

	isChanged := make([]bool, nu)
	for _, u := range changed {
		isChanged[u] = true
	}
	kA, kB := 0, 0
	for _, u := range changed {
		kA += len(setsA[u])
		kB += len(setsB[u])
	}
	for j, ow := range ownerA {
		if isChanged[ow[0]] {
			f.dFirstToB.RemoveCols = append(f.dFirstToB.RemoveCols, j)
		}
	}
	for _, u := range changed {
		setColumns(u, nu, setsB[u], &f.dFirstToB)
	}
	// After any toggle the changed users' columns sit at the tail
	// (lp.ProblemDelta appends), so later deltas remove a fixed tail range.
	n := probA.NumCols()
	nB := n - kA + kB
	for j := nB - kB; j < nB; j++ {
		f.dTailToA.RemoveCols = append(f.dTailToA.RemoveCols, j)
	}
	for _, u := range changed {
		setColumns(u, nu, setsA[u], &f.dTailToA)
	}
	for j := n - kA; j < n; j++ {
		f.dTailToB.RemoveCols = append(f.dTailToB.RemoveCols, j)
	}
	for _, u := range changed {
		setColumns(u, nu, setsB[u], &f.dTailToB)
	}
	return f
}

// TestWarmResolveObjectiveMatchesCold pins the acceptance criterion: after
// a 5%-of-users bid delta on the |U|=500 point, the warm re-solve's
// objective agrees with a cold solve of the (same, post-delta) problem to
// within ulps, and both certify via lp.Verify. Warm and cold provably reach
// the same optimal value; since the warm path started reusing the previous
// LU factors across re-solves (instead of refactorizing per delta), the two
// trajectories' round-off differs by design, so the pin is ulp-level rather
// than exact-bits — certified optimality, not a shared arithmetic path, is
// the contract. (Until PR 5 this was TestWarmResolveBitIdenticalObjective,
// asserting exact bits on this fixture.)
func TestWarmResolveObjectiveMatchesCold(t *testing.T) {
	f := buildWarmFixture(t)
	s := lp.NewSolver(lp.Revised{})
	defer s.Release()
	if _, err := s.Solve(f.probA); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Resolve(f.dFirstToB)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WarmSolves != 1 || st.FallbackSingular+st.FallbackInfeasible != 0 {
		t.Fatalf("delta did not take the warm path: %+v", st)
	}
	cold, err := (&lp.Revised{}).Solve(s.Problem())
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-12*(1+math.Abs(cold.Objective)) {
		t.Errorf("warm objective %.17g != cold %.17g (diff %g)", warm.Objective, cold.Objective, diff)
	}
	if err := lp.Verify(s.Problem(), warm, 1e-6); err != nil {
		t.Errorf("warm certificate: %v", err)
	}
	if err := lp.Verify(s.Problem(), cold, 1e-6); err != nil {
		t.Errorf("cold certificate: %v", err)
	}
	if warm.Iterations*5 > cold.Iterations {
		t.Logf("note: warm used %d pivots vs cold %d (< 5x pivot headroom)", warm.Iterations, cold.Iterations)
	}
}

// BenchmarkWarmResolve compares a cold solve of the |U|=500 benchmark LP
// (sub-benchmark "cold") with a warm Resolve of a 5%-of-bids delta from the
// previous basis ("warm"). The acceptance targets: warm ≥5× faster and ≤10%
// of cold's bytes/op.
func BenchmarkWarmResolve(b *testing.B) {
	f := buildWarmFixture(b)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (&lp.Revised{}).Solve(f.probA); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		s := lp.NewSolver(lp.Revised{})
		defer s.Release()
		if _, err := s.Solve(cloneLP(f.probA)); err != nil {
			b.Fatal(err)
		}
		// prime the toggle so the timed loop only sees tail deltas
		if _, err := s.Resolve(f.dFirstToB); err != nil {
			b.Fatal(err)
		}
		toA := true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := f.dTailToB
			if toA {
				d = f.dTailToA
			}
			if _, err := s.Resolve(d); err != nil {
				b.Fatal(err)
			}
			toA = !toA
		}
		b.StopTimer()
		st := s.Stats()
		if st.FallbackSingular+st.FallbackInfeasible > 0 {
			b.Fatalf("warm benchmark fell back to cold solves: %+v", st)
		}
		b.ReportMetric(float64(st.WarmPivots)/float64(st.WarmSolves), "pivots/resolve")
	})
}
