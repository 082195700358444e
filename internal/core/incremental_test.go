package core

import (
	"fmt"
	"testing"

	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// requireSameAsOracle asserts that an incremental Update result is
// bit-identical to the from-scratch oracle (a full Round on the same
// planner state): same arrangement, same utility bits, same diagnostics.
func requireSameAsOracle(t *testing.T, label string, res, oracle *Result) {
	t.Helper()
	if !res.Arrangement.Equal(oracle.Arrangement) {
		t.Fatalf("%s: incremental arrangement differs from full re-round", label)
	}
	if res.Utility != oracle.Utility {
		t.Fatalf("%s: utility %.17g != oracle %.17g", label, res.Utility, oracle.Utility)
	}
	if res.LPObjective != oracle.LPObjective || res.LPIterations != oracle.LPIterations ||
		res.LPColumns != oracle.LPColumns {
		t.Fatalf("%s: LP diagnostics differ: %+v vs %+v", label, res, oracle)
	}
	if res.TruncatedUsers != oracle.TruncatedUsers || res.SampledPairs != oracle.SampledPairs ||
		res.RepairDropped != oracle.RepairDropped || res.FilledPairs != oracle.FilledPairs {
		t.Fatalf("%s: rounding diagnostics differ: %+v vs %+v", label, res, oracle)
	}
}

// TestPlannerUpdateMatchesFullRound is the incremental rounding's pinned
// acceptance suite: scripted mutation chains on the synthetic and Meetup
// fixtures, across worker counts, with every Update compared bit-for-bit
// against the retained full re-round oracle.
func TestPlannerUpdateMatchesFullRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *model.Instance
	}{
		{"synthetic", parallelTestInstance(t)},
		{"meetup", meetupTestInstance(t)},
	} {
		for _, workers := range []int{1, 3, 8} {
			in := tc.in.Clone()
			p, err := NewPlanner(in, Options{Seed: 21, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(4321)
			for step := 0; step < 8; step++ {
				d := mutateInstance(in, rng)
				res, err := p.Update(d)
				if err != nil {
					t.Fatalf("%s w=%d step %d: %v", tc.name, workers, step, err)
				}
				oracle, err := p.Round()
				if err != nil {
					t.Fatal(err)
				}
				requireSameAsOracle(t, tc.name, res, oracle)
				if err := model.Validate(in, res.Arrangement); err != nil {
					t.Fatalf("%s w=%d step %d: infeasible: %v", tc.name, workers, step, err)
				}
			}
			if p.Stats().WarmSolves == 0 {
				t.Errorf("%s w=%d: no update took the warm path: %+v", tc.name, workers, p.Stats())
			}
			p.Close()
		}
	}
}

// TestPlannerUpdateMatchesFullRoundWithFill covers the GreedyFill
// configuration: the fill itself is a global pass, but it must start from
// the maintained post-repair state and land exactly where the full path
// lands.
func TestPlannerUpdateMatchesFullRoundWithFill(t *testing.T) {
	in := parallelTestInstance(t)
	p, err := NewPlanner(in, Options{Seed: 5, GreedyFill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := xrand.New(99)
	for step := 0; step < 5; step++ {
		res, err := p.Update(mutateInstance(in, rng))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := p.Round()
		if err != nil {
			t.Fatal(err)
		}
		requireSameAsOracle(t, "fill", res, oracle)
		if err := model.Validate(in, res.Arrangement); err != nil {
			t.Fatalf("step %d: infeasible: %v", step, err)
		}
	}
}

// TestPlannerUpdateAblationRepairOrders pins that the non-default repair
// orders still work through Update (via the full re-round fallback) and
// match the oracle trivially.
func TestPlannerUpdateAblationRepairOrders(t *testing.T) {
	for _, order := range []RepairOrder{RepairRandom, RepairByWeightAsc} {
		in := parallelTestInstance(t)
		p, err := NewPlanner(in, Options{Seed: 5, Repair: order})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(12)
		for step := 0; step < 3; step++ {
			res, err := p.Update(mutateInstance(in, rng))
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := p.Round()
			if err != nil {
				t.Fatal(err)
			}
			requireSameAsOracle(t, order.String(), res, oracle)
		}
		p.Close()
	}
}

// TestPlannerEmptyDeltaShortCircuits pins the empty-delta fast path: no
// cache sync, no validation, no LP solve — the cached result comes back
// as-is.
func TestPlannerEmptyDeltaShortCircuits(t *testing.T) {
	in := parallelTestInstance(t)
	p, err := NewPlanner(in, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Before any Update: the empty delta materializes the result once.
	first, err := p.Update(Delta{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := p.Round()
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsOracle(t, "empty-first", first, oracle)

	stats := p.Stats()
	again, err := p.Update(Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("empty delta did not return the cached result")
	}
	if p.Stats() != stats {
		t.Errorf("empty delta triggered solver work: %+v -> %+v", stats, p.Stats())
	}

	// After a real update the cache refreshes; an empty delta returns it.
	rng := xrand.New(8)
	res, err := p.Update(mutateInstance(in, rng))
	if err != nil {
		t.Fatal(err)
	}
	stats = p.Stats()
	cached, err := p.Update(Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if cached != res || p.Stats() != stats {
		t.Error("empty delta after an update re-solved or returned a different result")
	}
}

// TestPlannerUpdateSurvivesColdFallback forces a cold re-solve mid-stream
// (a brand-new bid pattern large enough to churn most columns can do it;
// here we simply rebuild the planner's tracker baseline by toggling a big
// batch) and checks the incremental state recovers through the rebuild
// path.
func TestPlannerUpdateSurvivesColdFallback(t *testing.T) {
	in := parallelTestInstance(t)
	p, err := NewPlanner(in, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// A very large delta: every fourth user drops all bids, then restores
	// them next step. Whether or not the solver falls back cold, the result
	// must track the oracle.
	var saved [][]int
	var users []int
	for u := 0; u < in.NumUsers(); u += 4 {
		saved = append(saved, in.Users[u].Bids)
		users = append(users, u)
		in.Users[u].Bids = nil
	}
	res, err := p.Update(Delta{Users: users})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := p.Round()
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsOracle(t, "mass-drop", res, oracle)
	for i, u := range users {
		in.Users[u].Bids = saved[i]
	}
	res, err = p.Update(Delta{Users: users})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err = p.Round()
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsOracle(t, "mass-restore", res, oracle)
}

// TestPlannerUpdateRejectsInvalidMutation pins the validation order of the
// delta path: an out-of-range or unsorted bid list must come back as the
// documented error — before the cache patch indexes anything by it — and
// must leave the planner usable once the caller fixes the instance.
func TestPlannerUpdateRejectsInvalidMutation(t *testing.T) {
	in := parallelTestInstance(t)
	p, err := NewPlanner(in, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	good := in.Users[4].Bids
	for _, bad := range [][]int{
		{in.NumEvents() + 7}, // out of range: would index past the bidder lists
		{3, 1},               // unsorted
	} {
		in.Users[4].Bids = bad
		if _, err := p.Update(Delta{Users: []int{4}}); err == nil {
			t.Fatalf("Update accepted invalid bids %v", bad)
		}
	}
	// Recovery: restore a valid mutation and check against the oracle.
	in.Users[4].Bids = good[1:]
	res, err := p.Update(Delta{Users: []int{4}})
	if err != nil {
		t.Fatalf("Update after recovery: %v", err)
	}
	oracle, err := p.Round()
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsOracle(t, "recovery", res, oracle)

	in.Events[2].Capacity = -1
	if _, err := p.Update(Delta{Events: []int{2}}); err == nil {
		t.Fatal("Update accepted negative event capacity")
	}
	in.Events[2].Capacity = 3
	if _, err := p.Update(Delta{Events: []int{2}}); err != nil {
		t.Fatalf("Update after capacity recovery: %v", err)
	}
}

// FuzzIncrementalRound mutates an instance through a Planner — bids
// arriving and expiring, capacities shrinking and growing, occasional empty
// deltas — asserting after every update that the incremental path is
// bit-identical to a rebuild-and-round of the mutated state (the full Round
// oracle) and that the warm LP still certifies.
func FuzzIncrementalRound(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(42), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			Seed: seed, NumUsers: 50 + int(uint64(seed)%50), NumEvents: 14,
			MaxEventCap: 5, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlanner(in, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := xrand.New(seed ^ 0x1234)
		for step := 0; step < int(steps%10); step++ {
			var d Delta
			if !rng.Bool(0.15) {
				d = mutateInstance(in, rng)
			}
			res, err := p.Update(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := lp.Verify(p.solver.Problem(), p.sol, 1e-6); err != nil {
				t.Fatalf("step %d: warm certificate: %v", step, err)
			}
			oracle, err := p.Round()
			if err != nil {
				t.Fatal(err)
			}
			requireSameAsOracle(t, "fuzz", res, oracle)
			if err := model.Validate(in, res.Arrangement); err != nil {
				t.Fatalf("step %d: infeasible arrangement: %v", step, err)
			}
			requirePlannerColumns(t, fmt.Sprintf("step %d", step), p)
		}
	})
}
