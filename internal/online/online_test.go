package online

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ebsn/igepa/internal/baselines"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
	"github.com/ebsn/igepa/internal/xrand"
)

func randomInstance(seed int64) *model.Instance {
	rng := xrand.New(seed)
	nv := 2 + rng.Intn(8)
	nu := 2 + rng.Intn(10)
	conf := conflict.Random(nv, rng.Float64()*0.5, rng)
	in := &model.Instance{
		Conflicts: conf.Conflicts,
		Interest:  func(u, v int) float64 { return xrand.HashFloat(seed, u, v) },
		Beta:      0.5 + rng.Float64()*0.5,
	}
	for v := 0; v < nv; v++ {
		in.Events = append(in.Events, model.Event{Capacity: 1 + rng.Intn(3)})
	}
	for u := 0; u < nu; u++ {
		nb := 1 + rng.Intn(nv)
		seen := map[int]bool{}
		var bids []int
		for len(bids) < nb {
			v := rng.Intn(nv)
			if !seen[v] {
				seen[v] = true
				bids = append(bids, v)
			}
		}
		for i := 1; i < len(bids); i++ {
			for j := i; j > 0 && bids[j] < bids[j-1]; j-- {
				bids[j], bids[j-1] = bids[j-1], bids[j]
			}
		}
		in.Users = append(in.Users, model.User{
			Capacity: 1 + rng.Intn(3), Bids: bids, Degree: rng.Intn(nu),
		})
	}
	return in
}

func fullOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestGreedyPlannerFeasibleAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		arr, err := Run(in, fullOrder(in.NumUsers()), NewGreedy(in, 0))
		if err != nil {
			return false
		}
		if modeltest.Check(in, arr) != nil {
			return false
		}
		// the online value can never beat the offline optimum
		_, opt, err := baselines.Optimal(in)
		if err != nil {
			return false
		}
		return model.Utility(in, arr) <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyTakesBestSetOnArrival(t *testing.T) {
	// one user, two non-conflicting events, cu=2: greedy must take both.
	in := &model.Instance{
		Events:    []model.Event{{Capacity: 1}, {Capacity: 1}},
		Users:     []model.User{{Capacity: 2, Bids: []int{0, 1}}},
		Conflicts: func(v, w int) bool { return false },
		Interest:  func(u, v int) float64 { return 0.5 },
		Beta:      1,
	}
	arr, err := Run(in, []int{0}, NewGreedy(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Sets[0]) != 2 {
		t.Fatalf("greedy took %v, want both events", arr.Sets[0])
	}
}

func TestCapacityConsumedAcrossArrivals(t *testing.T) {
	// two identical users, event capacity 1: only the first gets it.
	in := &model.Instance{
		Events: []model.Event{{Capacity: 1}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
		},
		Conflicts: func(v, w int) bool { return false },
		Interest:  func(u, v int) float64 { return 1 },
		Beta:      1,
	}
	arr, err := Run(in, []int{1, 0}, NewGreedy(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Sets[1]) != 1 || len(arr.Sets[0]) != 0 {
		t.Fatalf("arrival order not respected: %v", arr.Sets)
	}
}

func TestRunRejectsBadOrders(t *testing.T) {
	in := randomInstance(1)
	if _, err := Run(in, []int{0, 0}, NewGreedy(in, 0)); err == nil {
		t.Error("duplicate arrival accepted")
	}
	if _, err := Run(in, []int{in.NumUsers()}, NewGreedy(in, 0)); err == nil {
		t.Error("out-of-range arrival accepted")
	}
	// partial orders are fine: absent users simply get nothing
	arr, err := Run(in, nil, NewGreedy(in, 0))
	if err != nil || arr.Size() != 0 {
		t.Errorf("empty order: arr=%v err=%v", arr, err)
	}
}

func TestThresholdReservesForHeavyPairs(t *testing.T) {
	// Event capacity 2. A light user (w=0.2) arrives first, then two heavy
	// users (w=0.9). With Guard=0.5 and Tau=0.5 the light user may use only
	// the first (1-0.5)·2 = 1 seat... load 0 < 1 → admitted; the heavies
	// fill the rest. With pure greedy the outcome is the same here, so use
	// capacity 2, TWO light users first, one heavy: greedy gives
	// {light, light}; threshold keeps seat 2 for the heavy.
	w := []float64{0.2, 0.2, 0.9}
	in := &model.Instance{
		Events: []model.Event{{Capacity: 2}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
		},
		Conflicts: func(v, wv int) bool { return false },
		Interest:  func(u, v int) float64 { return w[u] },
		Beta:      1,
	}
	order := []int{0, 1, 2}

	greedy, err := Run(in, order, NewGreedy(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Sets[0]) != 1 || len(greedy.Sets[1]) != 1 || len(greedy.Sets[2]) != 0 {
		t.Fatalf("greedy baseline unexpected: %v", greedy.Sets)
	}

	th, err := Run(in, order, NewThreshold(in, 0.5, 0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(th.Sets[0]) != 1 || len(th.Sets[1]) != 0 || len(th.Sets[2]) != 1 {
		t.Fatalf("threshold did not reserve: %v", th.Sets)
	}
	if model.Utility(in, th) <= model.Utility(in, greedy) {
		t.Error("reservation did not pay off on the crafted stream")
	}
}

func TestThresholdGuardZeroEqualsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		order := fullOrder(in.NumUsers())
		g, err := Run(in, order, NewGreedy(in, 0))
		if err != nil {
			return false
		}
		th, err := Run(in, order, NewThreshold(in, 0.7, 0, 0))
		if err != nil {
			return false
		}
		return math.Abs(model.Utility(in, g)-model.Utility(in, th)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestThresholdAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		rng := xrand.New(seed)
		order := rng.Perm(in.NumUsers())
		th, err := Run(in, order, NewThreshold(in, rng.Float64(), rng.Float64(), 0))
		if err != nil {
			return false
		}
		return modeltest.Check(in, th) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGuardClamping(t *testing.T) {
	in := randomInstance(3)
	if p := NewThreshold(in, 0.5, -2, 0); p.guard != 0 {
		t.Errorf("guard not clamped up: %v", p.guard)
	}
	if p := NewThreshold(in, 0.5, 7, 0); p.guard != 1 {
		t.Errorf("guard not clamped down: %v", p.guard)
	}
}

// --- threshold edge cases: tau/guard extremes, zero capacity, exhaustion ---

// TestThresholdTauZeroEqualsGreedy: with tau = 0 every pair is "heavy", so
// any guard value degenerates to pure greedy.
func TestThresholdTauZeroEqualsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		order := fullOrder(in.NumUsers())
		g, err := Run(in, order, NewGreedy(in, 0))
		if err != nil {
			return false
		}
		for _, guard := range []float64{0, 0.5, 1} {
			th, err := Run(in, order, NewThreshold(in, 0, guard, 0))
			if err != nil || !g.Equal(th) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestThresholdGuardOneAdmitsOnlyHeavy: with Guard = 1 every seat is
// reserved, so pairs below tau are never granted — and with tau above every
// weight, nobody receives anything.
func TestThresholdGuardOneAdmitsOnlyHeavy(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		order := fullOrder(in.NumUsers())
		th, err := Run(in, order, NewThreshold(in, 0.6, 1, 0))
		if err != nil || modeltest.Check(in, th) != nil {
			return false
		}
		wc := in.Weights()
		for u, set := range th.Sets {
			for _, v := range set {
				if wc.Of(u, v) < 0.6 {
					return false // light pair slipped past a full guard
				}
			}
		}
		// tau above any possible weight (w ≤ β·1 + (1-β)·1 = 1): nothing granted
		starve, err := Run(in, fullOrder(in.NumUsers()), NewThreshold(in, 1.1, 1, 0))
		return err == nil && starve.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestOnlineZeroCapacityEvents: zero-capacity events are never granted by
// either planner, for any tau/guard combination including the extremes.
func TestOnlineZeroCapacityEvents(t *testing.T) {
	in := randomInstance(8)
	for v := 0; v < in.NumEvents(); v += 2 {
		in.Events[v].Capacity = 0
	}
	order := fullOrder(in.NumUsers())
	planners := []*GreedyPlanner{
		NewGreedy(in, 0),
		NewThreshold(in, 0, 0, 0),
		NewThreshold(in, 0.5, 0.5, 0),
		NewThreshold(in, 1, 1, 0),
	}
	for pi, p := range planners {
		arr, err := Run(in, order, p)
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireFeasible(t, "planner", in, arr)
		load := arr.Loads(in.NumEvents())
		for v := 0; v < in.NumEvents(); v += 2 {
			if load[v] != 0 {
				t.Errorf("planner %d granted %d seats of zero-capacity event %d", pi, load[v], v)
			}
		}
	}
}

// TestCapacityExhaustionMidStream: when an event sells out mid-stream the
// remaining arrivals must fall back to their best set among still-open
// events rather than walking away empty.
func TestCapacityExhaustionMidStream(t *testing.T) {
	// event 0: the prize, capacity 1; event 1: consolation, capacity 3.
	// Three users bid both with cu = 1. The first arrival takes event 0
	// (higher weight); the rest must take event 1.
	w := map[int]float64{0: 0.9, 1: 0.4}
	in := &model.Instance{
		Events: []model.Event{{Capacity: 1}, {Capacity: 3}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0, 1}},
			{Capacity: 1, Bids: []int{0, 1}},
			{Capacity: 1, Bids: []int{0, 1}},
		},
		Conflicts: func(v, wv int) bool { return false },
		Interest:  func(u, v int) float64 { return w[v] },
		Beta:      1,
	}
	arr, err := Run(in, []int{2, 0, 1}, NewGreedy(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Sets[2]) != 1 || arr.Sets[2][0] != 0 {
		t.Fatalf("first arrival should take the prize: %v", arr.Sets)
	}
	for _, u := range []int{0, 1} {
		if len(arr.Sets[u]) != 1 || arr.Sets[u][0] != 1 {
			t.Fatalf("user %d should fall back to event 1: %v", u, arr.Sets)
		}
	}
	modeltest.RequireFeasible(t, "exhaustion", in, arr)

	// threshold with a guard: the consolation event guards its last seats
	// for heavy pairs, so with tau between the weights the later light
	// arrivals are refused once the open fraction is consumed.
	th, err := Run(in, []int{2, 0, 1}, NewThreshold(in, 0.6, 2.0/3.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// open seats of event 1 = (1-2/3)*3 = 1: user 0 takes it, user 1 gets nothing
	if len(th.Sets[0]) != 1 || th.Sets[0][0] != 1 || len(th.Sets[1]) != 0 {
		t.Fatalf("guard did not bite mid-stream: %v", th.Sets)
	}
}

// TestBudgetPlannersRespectExternalBudget pins the capacity-lease contract:
// a planner never grants beyond its budget even when the instance capacity
// is larger, raising the budget between arrivals admits later users, and
// Loads reflects every grant.
func TestBudgetPlannersRespectExternalBudget(t *testing.T) {
	in := &model.Instance{
		Events: []model.Event{{Capacity: 10}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
		},
		Conflicts: func(v, w int) bool { return false },
		Interest:  func(u, v int) float64 { return 1 },
		Beta:      1,
	}
	budget := []int{1}
	p, err := NewGreedyBudgetShared(in, conflict.FromFunc(1, in.Conflicts), budget, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Arrive(0); len(got) != 1 {
		t.Fatalf("first arrival refused within budget: %v", got)
	}
	if got := p.Arrive(1); len(got) != 0 {
		t.Fatalf("budget exceeded: %v", got)
	}
	budget[0] = 2 // lease renewal grants one more seat
	if got := p.Arrive(2); len(got) != 1 {
		t.Fatalf("renewed budget not honored: %v", got)
	}
	if loads := p.Loads(); loads[0] != 2 {
		t.Fatalf("Loads = %v, want [2]", loads)
	}

	// threshold: the guard protects a fraction of the budget, not of the
	// instance capacity. Budget 2, guard 0.5, tau 0.9: light pairs may use
	// only (1-0.5)*2 = 1 seat.
	light := func(u, v int) float64 { return 0.5 }
	in2 := &model.Instance{
		Events:    []model.Event{{Capacity: 10}},
		Users:     in.Users,
		Conflicts: func(v, w int) bool { return false },
		Interest:  light,
		Beta:      1,
	}
	tb, err := NewGreedyBudgetShared(in2, conflict.FromFunc(1, in2.Conflicts), []int{2}, 0.9, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Arrive(0); len(got) != 1 {
		t.Fatalf("first light arrival refused: %v", got)
	}
	if got := tb.Arrive(1); len(got) != 0 {
		t.Fatalf("guard on budget not honored: %v", got)
	}
}
