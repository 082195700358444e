package lp_test

import (
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// TestIncrementalDualsTrackExact solves plan_tall's Dantzig-class instance
// (2400 users, 200 events, m = 2600) and the seed-1 Meetup instance with
// 400 users (m = 590) through core.LPPacking, both priced by partial
// Dantzig, and compares the pivot loop's incrementally updated duals with a
// fresh btran of the same basis before every refresh (lp.CheckDuals): each
// entry must agree within 1e-9·(1+|y|).
func TestIncrementalDualsTrackExact(t *testing.T) {
	tall, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2400, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	meetup, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   *model.Instance
	}{{"plan_tall", tall}, {"Meetup-400", meetup}} {
		const tol = 1e-9
		var tm lp.PhaseTimers
		done := lp.CheckDuals(tol)
		_, err := core.LPPacking(tc.in, core.Options{Seed: 1, LP: lp.Revised{Timers: &tm}})
		checks, worst, exceeded := done()
		if err != nil {
			t.Fatal(err)
		}
		if exceeded != nil {
			t.Errorf("%s: %v", tc.name, exceeded)
		}
		if checks == 0 {
			t.Errorf("%s: no updated duals were checked over %d pivots", tc.name, tm.Pivots)
		}
		t.Logf("%s: %d pivots, %d checks, worst |Δy|/(1+|y|) = %.3g", tc.name, tm.Pivots, checks, worst)
	}
}

// TestCarriedDualsOnBulkAddCols runs the warm re-solve of core's
// TestBulkAddColsResolvePinned: plan_tall's Dantzig-class LP solved cold
// without the columns of 5% of its users (drawn by xrand.New(1)), then one
// Resolve appending them all. The delta leaves the basis and c_B alone, so
// the fast finish and the warm pivot loop's entry reuse the cold solve's
// exact duals; each such BTRAN skipped must leave the bits a fresh one
// computes (lp.CheckCarriedDuals).
func TestCarriedDualsOnBulkAddCols(t *testing.T) {
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2400, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	wc := in.Weights()
	nu := in.NumUsers()
	sets := make([][]admissible.Set, nu)
	for u := range in.Users {
		usr := &in.Users[u]
		sets[u] = admissible.Enumerate(usr.Bids, usr.Capacity, conf, func(v int) float64 { return wc.Of(u, v) }, admissible.Config{}).Sets
	}
	full, owner := core.BuildBenchmarkLP(in, sets)
	held := make([]bool, nu)
	for _, u := range xrand.New(1).Perm(nu)[:nu/20] {
		held[u] = true
	}
	base := &lp.Problem{NumRows: full.NumRows, B: append([]float64(nil), full.B...)}
	var d lp.ProblemDelta
	for j := 0; j < full.NumCols(); j++ {
		rows := make([]int, 0, len(full.Col(j)))
		for _, r := range full.Col(j) {
			rows = append(rows, int(r))
		}
		if held[owner[j][0]] {
			d.AddCols = append(d.AddCols, lp.Column{Rows: rows})
			d.AddC = append(d.AddC, full.C[j])
		} else {
			base.AddColumn(full.C[j], rows)
		}
	}
	s := lp.NewSolver(lp.Revised{})
	defer s.Release()
	if _, err := s.Solve(base); err != nil {
		t.Fatal(err)
	}
	done := lp.CheckCarriedDuals()
	sol, err := s.Resolve(d)
	checks, mismatch := done()
	if err != nil {
		t.Fatal(err)
	}
	if mismatch != nil {
		t.Fatal(mismatch)
	}
	if err := lp.Verify(s.Problem(), sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WarmSolves != 1 || checks == 0 {
		t.Fatalf("%d warm solves and %d carried duals checked, want 1 and some", st.WarmSolves, checks)
	}
	t.Logf("%d warm pivots, %d BTRANs skipped on carried duals", st.WarmPivots, checks)
}
