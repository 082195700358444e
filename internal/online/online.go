// Package online implements an online variant of IGEPA as a reproduction
// extension: users arrive one at a time (the order models registration
// streams on a live EBSN platform) and the platform must irrevocably decide
// the arriving user's events before seeing later users. The paper studies
// the offline problem and cites the online GEACC line of work (She et al.,
// TKDE 2016) as the neighbouring setting; this package provides the natural
// online counterparts of the offline baselines so the cost of onlineness
// can be measured against the offline LP bound.
//
// One planner, GreedyPlanner, provides two policies:
//
//   - Greedy (guard 0): assign the arriving user their maximum-weight
//     admissible set that fits the remaining capacities.
//   - Threshold (guard > 0): like Greedy, but once an event has handed out
//     all but a guard fraction of its seats, only pairs with weight ≥ tau
//     are accepted — the classic reservation rule that keeps early
//     low-value arrivals from exhausting capacity that later high-value
//     arrivals would use.
package online

import (
	"fmt"
	"math"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model"
)

// BudgetError is the typed error returned by NewGreedyBudgetShared when the
// caller-supplied capacity budget cannot be a valid lease: wrong length,
// negative entries, or more seats than the event physically has (an
// over-committed lease). It replaces the out-of-range panics a malformed
// budget used to cause deep inside Arrive.
type BudgetError struct {
	// Event is the offending event index, or -1 for structural problems.
	Event  int
	Reason string
}

func (e *BudgetError) Error() string {
	if e.Event >= 0 {
		return fmt.Sprintf("online: invalid budget for event %d: %s", e.Event, e.Reason)
	}
	return "online: invalid budget: " + e.Reason
}

// RuleError is the typed error of a reservation rule whose tau or guard is
// NaN. NewThreshold clamps guard into [0,1], and a NaN would pass the clamp
// as some guard the caller never chose, so callers check the rule first
// (CheckRule).
type RuleError struct {
	Field string // "tau" or "guard"
}

func (e *RuleError) Error() string {
	return "online: invalid reservation rule: " + e.Field + " must be a number, got NaN"
}

// CheckRule returns a *RuleError when tau or guard is NaN, and nil
// otherwise.
func CheckRule(tau, guard float64) error {
	switch {
	case math.IsNaN(tau):
		return &RuleError{Field: "tau"}
	case math.IsNaN(guard):
		return &RuleError{Field: "guard"}
	}
	return nil
}

// checkBudget validates a caller-owned budget against the instance.
func checkBudget(in *model.Instance, conf *conflict.Matrix, budget []int) error {
	if in == nil {
		return &BudgetError{Event: -1, Reason: "nil instance"}
	}
	if conf == nil {
		return &BudgetError{Event: -1, Reason: "nil conflict matrix"}
	}
	if conf.Len() != in.NumEvents() {
		return &BudgetError{Event: -1, Reason: fmt.Sprintf(
			"conflict matrix covers %d events, instance has %d", conf.Len(), in.NumEvents())}
	}
	if len(budget) != in.NumEvents() {
		return &BudgetError{Event: -1, Reason: fmt.Sprintf(
			"budget covers %d events, instance has %d", len(budget), in.NumEvents())}
	}
	for v, b := range budget {
		if b < 0 {
			return &BudgetError{Event: v, Reason: fmt.Sprintf("negative lease %d", b)}
		}
		if b > in.Events[v].Capacity {
			return &BudgetError{Event: v, Reason: fmt.Sprintf(
				"lease %d exceeds capacity %d", b, in.Events[v].Capacity)}
		}
	}
	return nil
}

// CheckOrder validates an arrival order against the instance: every user in
// range, no duplicates — the contract under which Run and the sharded
// serving layer dispatch arrivals unchecked.
func CheckOrder(in *model.Instance, order []int) error {
	seen := make([]bool, in.NumUsers())
	for _, u := range order {
		if u < 0 || u >= len(seen) {
			return fmt.Errorf("online: arrival of unknown user %d", u)
		}
		if seen[u] {
			return fmt.Errorf("online: user %d arrived twice", u)
		}
		seen[u] = true
	}
	return nil
}

// Run processes the arrival order through the planner and returns the
// resulting arrangement. Users absent from order receive no events. It
// returns an error, before any arrival, if order contains an out-of-range
// or duplicate user.
func Run(in *model.Instance, order []int, p *GreedyPlanner) (*model.Arrangement, error) {
	if err := CheckOrder(in, order); err != nil {
		return nil, err
	}
	arr := model.NewArrangement(in.NumUsers())
	for _, u := range order {
		arr.Sets[u] = p.Arrive(u)
	}
	arr.Normalize()
	return arr, nil
}

// GreedyPlanner grants each arrival its best admissible set among the bids
// still open to it. A bid on event v is open while the planner has granted
// fewer than budget(v) seats of v. With a positive guard it also obeys the
// reservation rule: the last guard·budget(v) seats are kept for pairs with
// w(u,v) ≥ tau, so a lighter pair is open only while load(v) is below
// (1−guard)·budget(v). Guard 0 is pure greedy; guard 1 admits only pairs
// ≥ tau.
//
// The planner draws seats from a capacity budget rather than from the
// instance's raw Capacity fields. NewGreedy and NewThreshold give the
// planner a private budget equal to the event capacities (the classic
// single-planner setting, where the guard protects a fraction of cv);
// NewGreedyBudgetShared aliases a caller-owned budget slice, which is how
// the sharded serving layer (internal/shard) grants each shard a lease on a
// slice of every event's capacity and renews it between batches — the guard
// then protects the same fraction of the leased slice.
type GreedyPlanner struct {
	in         *model.Instance
	conf       *conflict.Matrix
	budget     []int // seats this planner may grant per event (may be caller-owned)
	load       []int // seats this planner has granted per event
	maxSets    int
	tau, guard float64 // the reservation rule; guard 0 disables it

	// per-arrival scratch, so a decision allocates only the slice it returns
	search admissible.Searcher
	open   []int
}

// NewGreedy returns a greedy online planner whose budget is the instance's
// event capacities. maxSets caps the per-user admissible-set enumeration
// (0 = package default).
func NewGreedy(in *model.Instance, maxSets int) *GreedyPlanner {
	return NewThreshold(in, 0, 0, maxSets)
}

// NewThreshold returns an online planner under the reservation rule (tau,
// guard) whose budget is the instance's event capacities. guard is clamped
// to [0,1]; a NaN tau or guard is the caller's to reject (CheckRule).
func NewThreshold(in *model.Instance, tau, guard float64, maxSets int) *GreedyPlanner {
	budget := make([]int, in.NumEvents())
	for v := range budget {
		budget[v] = in.Events[v].Capacity
	}
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	p, err := NewGreedyBudgetShared(in, conf, budget, tau, min(max(guard, 0), 1), maxSets)
	if err != nil {
		// the budget is the capacity table itself; it cannot be invalid
		panic(err)
	}
	return p
}

// NewGreedyBudgetShared returns an online planner under the reservation
// rule (tau, guard) that grants at most budget[v] seats of event v. The
// caller validates guard ∈ [0,1].
//
// The budget slice is aliased, not copied: the caller may raise (or, down to
// the current load, lower) entries between Arrive calls to renew a capacity
// lease, and the planner observes the new values on the next arrival.
// Mutating the budget concurrently with Arrive is a data race; the sharded
// serving layer only writes it at batch boundaries. The conflict matrix is
// shared read-only: a serving layer constructing one planner per shard over
// the same instance materializes the O(|V|²) matrix once instead of once
// per shard. It returns a *BudgetError when the budget cannot be a valid
// lease.
func NewGreedyBudgetShared(in *model.Instance, conf *conflict.Matrix, budget []int, tau, guard float64, maxSets int) (*GreedyPlanner, error) {
	if err := checkBudget(in, conf, budget); err != nil {
		return nil, err
	}
	return &GreedyPlanner{
		in:      in,
		conf:    conf,
		budget:  budget,
		load:    make([]int, in.NumEvents()),
		maxSets: maxSets,
		tau:     tau,
		guard:   guard,
	}, nil
}

// SetCache does nothing: the planner searches for the best set directly and
// keeps no families.
//
// Deprecated: kept only for callers that still attach a cache.
func (p *GreedyPlanner) SetCache(*admissible.Cache) {}

// Loads returns the per-event seat counts this planner has granted so far.
// The slice is the planner's internal state, aliased like the budget: its
// owner may move consumed seats in or out between Arrive calls (a user
// migration, a checkpoint restore), never concurrently with Arrive.
func (p *GreedyPlanner) Loads() []int { return p.load }

// Arrive returns the events granted to user u (sorted ascending) and
// consumes their seats. It must be called at most once per user, unless the
// user's seats were released in between.
func (p *GreedyPlanner) Arrive(u int) []int {
	usr := &p.in.Users[u]
	wc := p.in.Weights()
	p.open = p.open[:0]
	for _, v := range usr.Bids {
		if p.load[v] < p.budget[v] && (p.guard == 0 || wc.Of(u, v) >= p.tau ||
			float64(p.load[v]) < (1-p.guard)*float64(p.budget[v])) {
			p.open = append(p.open, v)
		}
	}
	w := func(v int) float64 { return wc.Of(u, v) }
	best := p.search.Best(p.open, usr.Capacity, p.conf, w, admissible.Config{MaxSetsPerUser: p.maxSets})
	best = append([]int(nil), best...)
	for _, v := range best {
		p.load[v]++
	}
	return best
}

// Release returns previously granted seats to the planner: the serving
// layer's cancellation path. The freed seats reappear in this planner's
// budget headroom (budget − load) and are grantable on the next arrival.
func (p *GreedyPlanner) Release(events []int) {
	for _, v := range events {
		if v >= 0 && v < len(p.load) && p.load[v] > 0 {
			p.load[v]--
		}
	}
}
