package eval

import (
	"fmt"
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// reducedFig1 is Fig. 1's sweep at reduced scale: the six Table I factors,
// two values each, around a 200-user, 30-event base instance.
func reducedFig1(seed int64) *Experiment {
	e := &Experiment{ID: "fig1-reduced", Title: "Fig. 1 factors at reduced scale", XLabel: "factor",
		Algorithms: StandardAlgorithms(1, 0)}
	point := func(label string, mod func(*workload.SyntheticConfig)) {
		e.Points = append(e.Points, syntheticPoint(label, float64(len(e.Points)), seed,
			func(c *workload.SyntheticConfig) {
				c.NumUsers, c.NumEvents, c.MaxEventCap = 200, 30, 20
				mod(c)
			}))
	}
	for _, nv := range []int{20, 40} {
		point(fmt.Sprintf("|V|=%d", nv), func(c *workload.SyntheticConfig) { c.NumEvents = nv })
	}
	for _, nu := range []int{100, 300} {
		point(fmt.Sprintf("|U|=%d", nu), func(c *workload.SyntheticConfig) { c.NumUsers = nu })
	}
	for _, p := range []float64{0.1, 0.5} {
		point(fmt.Sprintf("pcf=%.1f", p), func(c *workload.SyntheticConfig) { c.PConflict = p })
	}
	for _, p := range []float64{0.1, 0.9} {
		point(fmt.Sprintf("pdeg=%.1f", p), func(c *workload.SyntheticConfig) { c.PFriend = p })
	}
	for _, cv := range []int{5, 50} {
		point(fmt.Sprintf("max cv=%d", cv), func(c *workload.SyntheticConfig) { c.MaxEventCap = cv })
	}
	for _, cu := range []int{2, 6} {
		point(fmt.Sprintf("max cu=%d", cu), func(c *workload.SyntheticConfig) { c.MaxUserCap = cu })
	}
	return e
}

// TestLPPackingLeadsBaselines is Fig. 1's and Table II's claim at reduced
// scale: LP-packing's mean utility is at least GG's, Random-U's and
// Random-V's at every point of the sweep.
func TestLPPackingLeadsBaselines(t *testing.T) {
	tab, err := Run(reducedFig1(1), RunConfig{Reps: 2, Seed: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Series[0].Algorithm != "LP-packing" {
		t.Fatalf("first series is %q, want LP-packing", tab.Series[0].Algorithm)
	}
	lp := tab.Series[0].Cells
	for p, pt := range tab.Experiment.Points {
		for _, s := range tab.Series[1:] {
			if lp[p].Mean < s.Cells[p].Mean {
				t.Errorf("%s: LP-packing mean %.4f below %s's %.4f", pt.Label, lp[p].Mean, s.Algorithm, s.Cells[p].Mean)
			}
		}
	}
}

// TestLPObjectiveMonotoneInCapacity is Lemma 1's bound as a function of the
// seats: raising every event capacity on the same instance never lowers the
// LP optimum. The column set does not depend on c_v, so the only slack
// allowed is the solver's RHS perturbation, ≤ 2·10⁻⁷ relative.
func TestLPObjectiveMonotoneInCapacity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			Seed: seed, NumUsers: 200, NumEvents: 30, MaxEventCap: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for _, extra := range []int{0, 1, 3, 10, 200} {
			raised := in.Clone()
			for v := range raised.Events {
				raised.Events[v].Capacity += extra
			}
			res, err := core.LPPacking(raised, core.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.TruncatedUsers != 0 {
				t.Fatalf("seed %d: %d users truncated; the LP is not Lemma 1's", seed, res.TruncatedUsers)
			}
			if res.LPObjective < prev*(1-2e-7) {
				t.Errorf("seed %d: capacities +%d lower the LP optimum from %.9f to %.9f",
					seed, extra, prev, res.LPObjective)
			}
			prev = res.LPObjective
		}
	}
}

// TestLPObjectiveMonotoneInEvents is Lemma 1's bound as a function of the
// events on offer: on nested instances, built by removing every bid on a
// shrinking set of events (drawn by xrand.New(seed)), each instance's
// admissible sets are among the next one's with the same weights, so the LP
// optimum never falls as events return. The only slack allowed is the
// solver's RHS perturbation, ≤ 2·10⁻⁷ relative.
func TestLPObjectiveMonotoneInEvents(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			Seed: seed, NumUsers: 200, NumEvents: 30, MaxEventCap: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		order := xrand.New(seed).Perm(in.NumEvents())
		prev := 0.0
		for _, gone := range []int{25, 15, 8, 3, 0} {
			removed := make([]bool, in.NumEvents())
			for _, v := range order[:gone] {
				removed[v] = true
			}
			nested := in.Clone()
			for u := range nested.Users {
				var bids []int
				for _, v := range nested.Users[u].Bids {
					if !removed[v] {
						bids = append(bids, v)
					}
				}
				nested.Users[u].Bids = bids
			}
			res, err := core.LPPacking(nested, core.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.TruncatedUsers != 0 {
				t.Fatalf("seed %d: %d users truncated; the LP is not Lemma 1's", seed, res.TruncatedUsers)
			}
			if res.LPObjective < prev*(1-2e-7) {
				t.Errorf("seed %d: restoring events' bids (%d still removed) lowers the LP optimum from %.9f to %.9f",
					seed, gone, prev, res.LPObjective)
			}
			prev = res.LPObjective
		}
	}
}
