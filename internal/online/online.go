// Package online implements an online variant of IGEPA as a reproduction
// extension: users arrive one at a time (the order models registration
// streams on a live EBSN platform) and the platform must irrevocably decide
// the arriving user's events before seeing later users. The paper studies
// the offline problem and cites the online GEACC line of work (She et al.,
// TKDE 2016) as the neighbouring setting; this package provides the natural
// online counterparts of the offline baselines so the cost of onlineness
// can be measured against the offline LP bound.
//
// Two policies are provided:
//
//   - Greedy: assign the arriving user their maximum-weight admissible set
//     that fits the remaining capacities.
//   - Threshold: like Greedy, but while an event still has more than a
//     guard fraction of its capacity free, only pairs with weight ≥ tau are
//     accepted — the classic reservation rule that keeps early low-value
//     arrivals from exhausting capacity that later high-value arrivals
//     would use.
package online

import (
	"fmt"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model"
)

// BudgetError is the typed error returned by the budget-owning constructors
// when the caller-supplied capacity budget cannot be a valid lease: wrong
// length, negative entries, or more seats than the event physically has
// (an over-committed lease). It replaces the out-of-range panics a malformed
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

// Planner assigns events to users as they arrive. Implementations are
// stateful: each Arrive consumes capacity permanently.
type Planner interface {
	// Arrive returns the events granted to user u (sorted ascending).
	// It must be called at most once per user.
	Arrive(u int) []int
}

// Run processes the arrival order through the planner and returns the
// resulting arrangement. Users absent from order receive no events. It
// returns an error if order contains an out-of-range or duplicate user.
func Run(in *model.Instance, order []int, p Planner) (*model.Arrangement, error) {
	arr := model.NewArrangement(in.NumUsers())
	seen := make([]bool, in.NumUsers())
	for _, u := range order {
		if u < 0 || u >= in.NumUsers() {
			return nil, fmt.Errorf("online: arrival of unknown user %d", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("online: user %d arrived twice", u)
		}
		seen[u] = true
		arr.Sets[u] = p.Arrive(u)
	}
	arr.Normalize()
	return arr, nil
}

// GreedyPlanner grants each arrival its best admissible set that fits the
// remaining event capacities.
//
// The planner draws seats from a capacity budget rather than from the
// instance's raw Capacity fields. NewGreedy gives the planner a private
// budget equal to the event capacities (the classic single-planner setting);
// NewGreedyBudget aliases a caller-owned budget slice, which is how the
// sharded serving layer (internal/shard) grants each shard a lease on a
// slice of every event's capacity and renews it between batches.
type GreedyPlanner struct {
	in      *model.Instance
	conf    *conflict.Matrix
	budget  []int // seats this planner may grant per event (may be caller-owned)
	load    []int // seats this planner has granted per event
	maxSets int

	// per-arrival scratch, so a decision allocates only the slice it returns
	search admissible.Searcher
	open   []int
}

// NewGreedy returns a greedy online planner whose budget is the instance's
// event capacities. maxSets caps the per-user admissible-set enumeration
// (0 = package default).
func NewGreedy(in *model.Instance, maxSets int) *GreedyPlanner {
	budget := make([]int, in.NumEvents())
	for v := range budget {
		budget[v] = in.Events[v].Capacity
	}
	p, err := NewGreedyBudget(in, budget, maxSets)
	if err != nil {
		// the budget is the capacity table itself; it cannot be invalid
		panic(err)
	}
	return p
}

// NewGreedyBudget returns a greedy online planner that grants at most
// budget[v] seats of event v. The slice is aliased, not copied: the caller
// may raise (or, down to the current load, lower) entries between Arrive
// calls to renew a capacity lease, and the planner observes the new values
// on the next arrival. Mutating the budget concurrently with Arrive is a
// data race; the sharded serving layer only writes it at batch boundaries.
// It returns a *BudgetError when the budget cannot be a valid lease.
func NewGreedyBudget(in *model.Instance, budget []int, maxSets int) (*GreedyPlanner, error) {
	if in == nil {
		return nil, &BudgetError{Event: -1, Reason: "nil instance"}
	}
	return NewGreedyBudgetShared(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), budget, maxSets)
}

// NewGreedyBudgetShared is NewGreedyBudget with a caller-provided conflict
// matrix, shared read-only: a serving layer constructing one planner per
// shard over the same instance materializes the O(|V|²) matrix once instead
// of once per shard.
func NewGreedyBudgetShared(in *model.Instance, conf *conflict.Matrix, budget []int, maxSets int) (*GreedyPlanner, error) {
	if err := checkBudget(in, conf, budget); err != nil {
		return nil, err
	}
	return &GreedyPlanner{
		in:      in,
		conf:    conf,
		budget:  budget,
		load:    make([]int, in.NumEvents()),
		maxSets: maxSets,
	}, nil
}

// SetCache does nothing: the planner searches for the best set directly and
// keeps no families.
//
// Deprecated: kept only for callers that still attach a cache.
func (p *GreedyPlanner) SetCache(*admissible.Cache) {}

// Loads returns the per-event seat counts this planner has granted so far.
// The slice is the planner's internal state: callers must not modify it and
// must not read it concurrently with Arrive.
func (p *GreedyPlanner) Loads() []int { return p.load }

// Arrive implements Planner.
func (p *GreedyPlanner) Arrive(u int) []int {
	best := p.bestFeasibleSet(u, func(int) bool { return true })
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

// bestFeasibleSet returns the maximum-weight admissible set of user u whose
// events all pass accept and have remaining budget.
func (p *GreedyPlanner) bestFeasibleSet(u int, accept func(v int) bool) []int {
	usr := &p.in.Users[u]
	p.open = p.open[:0]
	for _, v := range usr.Bids {
		if p.load[v] < p.budget[v] && accept(v) {
			p.open = append(p.open, v)
		}
	}
	wc := p.in.Weights()
	w := func(v int) float64 { return wc.Of(u, v) }
	best := p.search.Best(p.open, usr.Capacity, p.conf, w, admissible.Config{MaxSetsPerUser: p.maxSets})
	return append([]int(nil), best...)
}

// ThresholdPlanner is GreedyPlanner plus a reservation rule: the last
// Guard·budget(v) seats of every event are reserved for pairs with
// w(u,v) ≥ Tau; lighter pairs are admitted only into the first
// (1−Guard)·budget(v) seats. With the default budget (NewThreshold) the
// budget is cv, the paper-setting reservation rule; under a capacity lease
// the guard protects the same fraction of the leased slice.
type ThresholdPlanner struct {
	GreedyPlanner
	// Tau is the admission threshold on pair weight.
	Tau float64
	// Guard is the reserved capacity fraction in [0,1]. Guard=0 disables
	// the rule (pure greedy); Guard=1 admits only pairs ≥ Tau.
	Guard float64
}

// NewThreshold returns a threshold online planner whose budget is the
// instance's event capacities.
func NewThreshold(in *model.Instance, tau, guard float64, maxSets int) *ThresholdPlanner {
	budget := make([]int, in.NumEvents())
	for v := range budget {
		budget[v] = in.Events[v].Capacity
	}
	p, err := NewThresholdBudget(in, budget, tau, guard, maxSets)
	if err != nil {
		// the budget is the capacity table itself; it cannot be invalid
		panic(err)
	}
	return p
}

// NewThresholdBudget returns a threshold online planner over a caller-owned
// capacity budget (see NewGreedyBudget for the aliasing contract). It
// returns a *BudgetError when the budget cannot be a valid lease.
func NewThresholdBudget(in *model.Instance, budget []int, tau, guard float64, maxSets int) (*ThresholdPlanner, error) {
	if in == nil {
		return nil, &BudgetError{Event: -1, Reason: "nil instance"}
	}
	return NewThresholdBudgetShared(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), budget, tau, guard, maxSets)
}

// NewThresholdBudgetShared is NewThresholdBudget with a caller-provided
// conflict matrix (see NewGreedyBudgetShared).
func NewThresholdBudgetShared(in *model.Instance, conf *conflict.Matrix, budget []int, tau, guard float64, maxSets int) (*ThresholdPlanner, error) {
	if guard < 0 {
		guard = 0
	}
	if guard > 1 {
		guard = 1
	}
	g, err := NewGreedyBudgetShared(in, conf, budget, maxSets)
	if err != nil {
		return nil, err
	}
	return &ThresholdPlanner{
		GreedyPlanner: *g,
		Tau:           tau,
		Guard:         guard,
	}, nil
}

// Arrive implements Planner.
func (p *ThresholdPlanner) Arrive(u int) []int {
	wc := p.in.Weights()
	best := p.bestFeasibleSet(u, func(v int) bool {
		if wc.Of(u, v) >= p.Tau {
			return true // heavy pairs may use any seat
		}
		openSeats := (1 - p.Guard) * float64(p.budget[v])
		return float64(p.load[v]) < openSeats
	})
	for _, v := range best {
		p.load[v]++
	}
	return best
}
