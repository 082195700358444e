package lp_test

import (
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
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
