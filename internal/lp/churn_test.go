package lp_test

import (
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// TestWarmPricingOnChurn replays the stream of core's
// TestChurnCompactionPinned, whose first 102 updates are
// TestChurnTrajectoryPinned's: a Planner on the 2000-user, 200-event
// replan_churn-scale instance (m = 2200, partial Dantzig) through 816
// updates, long enough for two compactions. Every partial Dantzig pricing
// call the warm re-solves make, and random probes beside each, must return
// the plain scan's (q, next) and count what it reads (lp.CheckPricing), and
// every BTRAN that returns early on carried exact duals must leave the bits
// a fresh one computes (lp.CheckCarriedDuals).
func TestWarmPricingOnChurn(t *testing.T) {
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2000, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	var tm lp.PhaseTimers
	p, err := core.NewPlanner(in, core.Options{Seed: 1, LP: lp.Revised{Timers: &tm}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tm = lp.PhaseTimers{} // the warm re-solves' counts alone
	done := lp.CheckPricing(xrand.New(7))
	defer done() // uninstalls the checks when an update fails
	doneDuals := lp.CheckCarriedDuals()
	defer doneDuals()
	next := churnStream(in)
	for j := 0; j < 16*51; j++ {
		if _, err := p.Update(next(j)); err != nil {
			t.Fatalf("update %d: %v", j, err)
		}
	}
	rep := done()
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	carried, err := doneDuals()
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Compactions < 2 || rep.TombstoneWindows == 0 || rep.Probes == 0 || carried == 0 {
		t.Errorf("%d compactions, %d cached pricing calls with a tombstone in the window, %d probes and %d carried duals checked; want ≥ 2 and some of each",
			st.Compactions, rep.TombstoneWindows, rep.Probes, carried)
	}
	t.Logf("%d warm resolves: %d pricing calls checked (%d cached, %d with a tombstone in the window) and %d probes; %d variables read and %d skipped; %d BTRANs skipped on carried duals",
		st.WarmSolves, rep.Calls, rep.CachedCalls, rep.TombstoneWindows, rep.Probes, tm.PricedVars, tm.SkippedVars, carried)
}

// churnStream is core's churnStream, the update stream of its pinned churn
// tests: next(j) mutates in for update j and returns its delta. Update
// j%51 == 50 toggles 5% of the users, every fifth other update edits the
// capacity of 5 events and the rest toggle one user's last bid. Every toggle
// flips between the generated value and one edit away from it; the draws
// come from xrand.New(1).
func churnStream(in *model.Instance) func(j int) core.Delta {
	nu, nv := in.NumUsers(), in.NumEvents()
	origBids := make([][]int, nu)
	for u := range in.Users {
		origBids[u] = in.Users[u].Bids
	}
	origCap := make([]int, nv)
	for v := range in.Events {
		origCap[v] = in.Events[v].Capacity
	}
	dropped, lowered := make([]bool, nu), make([]bool, nv)
	toggleUser := func(u int) {
		orig := origBids[u]
		if dropped[u] {
			in.Users[u].Bids = orig
		} else {
			in.Users[u].Bids = orig[: len(orig)-1 : len(orig)-1]
		}
		dropped[u] = !dropped[u]
	}
	toggleEvent := func(v int) {
		switch {
		case lowered[v]:
			in.Events[v].Capacity = origCap[v]
		case origCap[v] > 1:
			in.Events[v].Capacity = origCap[v] - 1
		default:
			in.Events[v].Capacity = origCap[v] + 1
		}
		lowered[v] = !lowered[v]
	}
	rng := xrand.New(1)
	return func(j int) core.Delta {
		var d core.Delta
		switch {
		case j%51 == 50:
			d.Users = rng.Perm(nu)[:nu/20]
			for _, u := range d.Users {
				toggleUser(u)
			}
		case j%5 == 4:
			d.Events = rng.Perm(nv)[:5]
			for _, v := range d.Events {
				toggleEvent(v)
			}
		default:
			u := rng.Intn(nu)
			toggleUser(u)
			d.Users = []int{u}
		}
		return d
	}
}
