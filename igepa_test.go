package igepa_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/ebsn/igepa"
)

func smallInstance(t *testing.T) *igepa.Instance {
	t.Helper()
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 7, NumEvents: 20, NumUsers: 50,
		MaxEventCap: 5, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPublicPipeline(t *testing.T) {
	in := smallInstance(t)
	res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := igepa.Validate(in, res.Arrangement); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Utility <= 0 || res.Utility > res.LPObjective+1e-9 {
		t.Fatalf("utility %v outside (0, LP=%v]", res.Utility, res.LPObjective)
	}
	if got := igepa.Utility(in, res.Arrangement); math.Abs(got-res.Utility) > 1e-12 {
		t.Fatal("Utility disagrees with result")
	}
}

// TestPublicPlanner drives the incremental serving loop through the public
// API: bids expire, capacities shrink, and every Update stays feasible with
// a non-increasing opportunity bound.
func TestPublicPlanner(t *testing.T) {
	in := smallInstance(t)
	p, err := igepa.NewPlanner(in, igepa.LPPackingOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prevBound := p.Objective()
	for step := 0; step < 4; step++ {
		u := step * 7 % in.NumUsers()
		in.Users[u].Bids = nil // user leaves
		var d igepa.PlannerDelta
		d.Users = append(d.Users, u)
		if v := step % in.NumEvents(); in.Events[v].Capacity > 0 {
			in.Events[v].Capacity--
			d.Events = append(d.Events, v)
		}
		res, err := p.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := igepa.Validate(in, res.Arrangement); err != nil {
			t.Fatalf("step %d: infeasible: %v", step, err)
		}
		if len(res.Arrangement.Sets[u]) != 0 {
			t.Fatalf("step %d: departed user %d still assigned %v", step, u, res.Arrangement.Sets[u])
		}
		// shrinking the instance can only lower the LP bound
		if res.LPObjective > prevBound+1e-9 {
			t.Fatalf("step %d: bound rose from %v to %v", step, prevBound, res.LPObjective)
		}
		prevBound = res.LPObjective
	}
	if st := p.Stats(); st.WarmSolves == 0 {
		t.Errorf("no update took the warm path: %+v", st)
	}
}

func TestSolveRegistry(t *testing.T) {
	in := smallInstance(t)
	for _, name := range igepa.AlgorithmNames() {
		if name == "optimal" {
			continue // |U|=50 exceeds the exact solver's limit; tested below
		}
		arr, err := igepa.Solve(in, name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := igepa.Validate(in, arr); err != nil {
			t.Fatalf("%s: infeasible: %v", name, err)
		}
	}
	if _, err := igepa.Solve(in, "gg", 0); err != nil {
		t.Errorf("alias gg rejected: %v", err)
	}
	if _, err := igepa.Solve(in, "nope", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := igepa.Solve(in, "optimal", 0); err == nil {
		t.Error("optimal accepted an oversized instance")
	}
}

func TestSolveOptimalSmall(t *testing.T) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 3, NumEvents: 6, NumUsers: 8,
		MaxEventCap: 2, MaxUserCap: 2, MinBids: 2, MaxBids: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, opt, err := igepa.Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := igepa.Validate(in, arr); err != nil {
		t.Fatal(err)
	}
	gg := igepa.Greedy(in)
	if igepa.Utility(in, gg) > opt+1e-9 {
		t.Error("greedy beat the optimum")
	}
	via, err := igepa.Solve(in, "optimal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(igepa.Utility(in, via)-opt) > 1e-9 {
		t.Error("Solve(optimal) differs from Optimal")
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	in := smallInstance(t)
	var buf bytes.Buffer
	if err := igepa.SaveInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := igepa.LoadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEvents() != in.NumEvents() || back.NumUsers() != in.NumUsers() {
		t.Fatal("dimensions changed in round trip")
	}
	if back.Beta != in.Beta {
		t.Fatalf("beta %v -> %v", in.Beta, back.Beta)
	}
	// conflicts preserved on all pairs
	for v := 0; v < in.NumEvents(); v++ {
		for w := 0; w < in.NumEvents(); w++ {
			if in.Conflicts(v, w) != back.Conflicts(v, w) {
				t.Fatalf("conflict (%d,%d) changed", v, w)
			}
		}
	}
	// interests preserved on bid pairs
	for u := range in.Users {
		for _, v := range in.Users[u].Bids {
			if math.Abs(in.Interest(u, v)-back.Interest(u, v)) > 1e-12 {
				t.Fatalf("interest (%d,%d) changed", u, v)
			}
		}
	}
	// algorithms behave identically on the round-tripped instance
	a := igepa.Greedy(in)
	b := igepa.Greedy(back)
	if math.Abs(igepa.Utility(in, a)-igepa.Utility(back, b)) > 1e-12 {
		t.Fatal("greedy differs after round trip")
	}
}

func TestLoadInstanceRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"beta":"2","events":[],"users":[],"conflicts":[]}`,                                                        // beta out of range
		`{"beta":"0.5","events":[{"capacity":1}],"users":[],"conflicts":[[0,9]]}`,                                   // conflict out of range
		`{"beta":"0.5","events":[{"capacity":1}],"users":[{"capacity":1,"bids":[0],"interest":[]}],"conflicts":[]}`, // interest/bids mismatch
	}
	for i, c := range cases {
		if _, err := igepa.LoadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestArrangementRoundTrip(t *testing.T) {
	in := smallInstance(t)
	arr := igepa.Greedy(in)
	var buf bytes.Buffer
	if err := igepa.SaveArrangement(&buf, arr); err != nil {
		t.Fatal(err)
	}
	back, err := igepa.LoadArrangement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := igepa.Validate(in, back); err != nil {
		t.Fatalf("round-tripped arrangement infeasible: %v", err)
	}
	if igepa.Utility(in, back) != igepa.Utility(in, arr) {
		t.Fatal("utility changed in round trip")
	}
}

func TestLocalSearchPublic(t *testing.T) {
	in := smallInstance(t)
	start := igepa.RandomU(in, 1)
	improved := igepa.LocalSearch(in, start, 0)
	if igepa.Utility(in, improved) < igepa.Utility(in, start)-1e-9 {
		t.Error("local search decreased utility")
	}
	if err := igepa.Validate(in, improved); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStatsPublic(t *testing.T) {
	in := smallInstance(t)
	st := igepa.ComputeStats(in)
	if st.NumEvents != 20 || st.NumUsers != 50 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestMeetupPublic(t *testing.T) {
	in, err := igepa.Meetup(igepa.MeetupConfig{Seed: 1, NumUsers: 150, NumEvents: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 2, MaxSetsPerUser: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := igepa.Validate(in, res.Arrangement); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineThresholdRejectsNaN requires OnlineThreshold to reject a NaN tau
// or guard with an *OnlineRuleError naming it and no arrangement, instead of
// running the rule the clamp makes of it; a valid rule on the same stream
// still runs.
func TestOnlineThresholdRejectsNaN(t *testing.T) {
	in := smallInstance(t)
	order := make([]int, in.NumUsers())
	for u := range order {
		order[u] = u
	}
	for _, tc := range []struct {
		tau, guard float64
		field      string // "" when the rule is valid
	}{
		{math.NaN(), 0.5, "tau"},
		{0.5, math.NaN(), "guard"},
		{0.5, 0.5, ""},
	} {
		arr, err := igepa.OnlineThreshold(in, order, tc.tau, tc.guard)
		if tc.field == "" {
			if err != nil || arr == nil {
				t.Errorf("tau %v guard %v: arrangement %v, err %v; want an arrangement", tc.tau, tc.guard, arr, err)
			}
			continue
		}
		var re *igepa.OnlineRuleError
		if !errors.As(err, &re) || re.Field != tc.field || arr != nil {
			t.Errorf("tau %v guard %v: arrangement %v, err %v; want no arrangement and an *OnlineRuleError for %s",
				tc.tau, tc.guard, arr, err, tc.field)
		}
	}
}
