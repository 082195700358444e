// Package igepa is a from-scratch Go implementation of Interaction-aware
// Global Event-Participant Arrangement (IGEPA) for event-based social
// networks, reproducing Kou, Zhou, Cheng, Du, Shi and Xu, "Interaction-Aware
// Arrangement for Event-Based Social Networks", IEEE ICDE 2019.
//
// The library assigns users to the events they bid for, maximizing a blend
// of user interest and social-interaction potential, subject to event
// capacities, user capacities and inter-event conflicts. The headline
// algorithm is LP-packing (Algorithm 1 of the paper): solve a benchmark
// linear program over per-user admissible event sets, randomly round it,
// then repair capacity violations — a ≥1/4-approximation at sampling rate
// α = 1/2.
//
// Quick start:
//
//	in, _ := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1})
//	res, _ := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 2})
//	fmt.Println(res.Utility, igepa.Validate(in, res.Arrangement) == nil)
//
// Everything is deterministic given the seeds — including under the
// parallel pipeline, whose results are bit-identical for every worker count
// — uses only the standard library, and every arrangement can be re-checked
// with Validate. See DESIGN.md for the pipeline architecture; the paper
// sweeps are reproduced by cmd/igepa-bench, and bench/ measures speed
// layer by layer.
package igepa

import (
	"fmt"

	"github.com/ebsn/igepa/internal/baselines"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/online"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/workload"
)

// Core data model (see Definitions 1-8 of the paper).
type (
	// Event is an event with capacity, attribute vector and optional time
	// interval.
	Event = model.Event
	// User is a user with capacity, attribute vector, bid set and social
	// degree.
	User = model.User
	// Instance is a full IGEPA problem instance.
	Instance = model.Instance
	// Arrangement is an event-participant arrangement M ⊆ V×U.
	Arrangement = model.Arrangement
	// Pair is a single (event, user) match.
	Pair = model.Pair
	// InstanceStats summarizes an instance.
	InstanceStats = model.Stats
	// ConflictFunc is the conflict predicate σ.
	ConflictFunc = model.ConflictFunc
	// InterestFunc is the interest function SI.
	InterestFunc = model.InterestFunc
)

// Utility computes Utility(M) (Definition 7).
func Utility(in *Instance, a *Arrangement) float64 { return model.Utility(in, a) }

// Validate checks arrangement feasibility (Definition 4); nil means
// feasible.
func Validate(in *Instance, a *Arrangement) error { return model.Validate(in, a) }

// ComputeStats summarizes an instance.
func ComputeStats(in *Instance) InstanceStats { return model.ComputeStats(in) }

// LP-packing (the paper's contribution).
type (
	// LPPackingOptions configures the LP-packing solver (α, seed, worker
	// bound, LP phase timers, repair order, extensions).
	LPPackingOptions = core.Options
	// LPPackingResult carries the arrangement plus solver diagnostics,
	// including the LP objective, which bounds the optimum only when no
	// user's admissible sets were truncated (TruncatedUsers == 0).
	LPPackingResult = core.Result
	// RepairOrder selects the capacity-repair scan order.
	RepairOrder = core.RepairOrder
)

// Repair orders (ablations; the paper's algorithm uses RepairByIndex).
const (
	RepairByIndex     = core.RepairByIndex
	RepairRandom      = core.RepairRandom
	RepairByWeightAsc = core.RepairByWeightAsc
)

// LPPacking runs Algorithm 1 of the paper on the instance.
func LPPacking(in *Instance, opt LPPackingOptions) (*LPPackingResult, error) {
	return core.LPPacking(in, opt)
}

// Incremental planning (serving extension): a Planner keeps the LP-packing
// pipeline's state alive between solves — the benchmark LP, whose columns
// are the admissible sets, each user's list of its columns, a persistent
// warm-starting simplex basis, and (under the default repair order) the
// sampled-and-repaired arrangement itself with its utility accumulator — so
// a stream of small instance changes (bids arriving or expiring, capacities
// shrinking as seats are granted) costs work proportional to the delta
// instead of a from-scratch run. Given the same
// seed, Update's incremental rounding is bit-identical to a full re-round
// (Planner.Round, retained as the oracle); an empty delta short-circuits to
// the cached result.
type (
	// Planner runs LPPacking and keeps it live: LPPacking is a Planner's
	// cold build and first Round. Construct with
	// NewPlanner, mutate the instance in place, then call Update naming
	// what changed; Close releases the solver arena. Update's Result
	// aliases planner-owned state and is valid until the next Update.
	Planner = core.Planner
	// PlannerDelta names the users and events the caller mutated.
	PlannerDelta = core.Delta
)

// NewPlanner builds the incremental pipeline on the instance and solves the
// benchmark LP cold with its own persistent warm-starting solver.
func NewPlanner(in *Instance, opt LPPackingOptions) (*Planner, error) {
	return core.NewPlanner(in, opt)
}

// Greedy runs GG, the deterministic greedy baseline: feasible (event, user)
// pairs are added in order of decreasing marginal utility.
func Greedy(in *Instance) *Arrangement { return baselines.Greedy(in) }

// RandomU runs the user-driven randomized baseline.
func RandomU(in *Instance, seed int64) *Arrangement { return baselines.RandomU(in, seed) }

// RandomV runs the event-driven randomized baseline.
func RandomV(in *Instance, seed int64) *Arrangement { return baselines.RandomV(in, seed) }

// Optimal computes the exact optimum by branch-and-bound; it is limited to
// small instances (at most OptimalUserLimit users).
func Optimal(in *Instance) (*Arrangement, float64, error) { return baselines.Optimal(in) }

// OptimalUserLimit is the largest |U| Optimal accepts.
const OptimalUserLimit = baselines.MaxOptimalUsers

// LocalSearch improves an arrangement with add and swap moves until a local
// optimum (an extension beyond the paper; never decreases utility).
func LocalSearch(in *Instance, start *Arrangement, maxRounds int) *Arrangement {
	return baselines.LocalSearch(in, start, maxRounds)
}

// Dataset generators (the paper's evaluation workloads).
type (
	// SyntheticConfig holds the Table I factors.
	SyntheticConfig = workload.SyntheticConfig
	// MeetupConfig parameterizes the Meetup-like real-data analogue.
	MeetupConfig = workload.MeetupConfig
)

// Synthetic generates a Table I synthetic instance.
func Synthetic(cfg SyntheticConfig) (*Instance, error) { return workload.Synthetic(cfg) }

// Meetup generates the Meetup-like instance (190 events / 2811 users by
// default, with the paper's preprocessing rules).
func Meetup(cfg MeetupConfig) (*Instance, error) { return workload.Meetup(cfg) }

// OnlineGreedy processes users in the given arrival order, granting each
// their best admissible set that fits the remaining capacities — the online
// variant of IGEPA (a reproduction extension; the paper's algorithms are
// offline). Users absent from order receive nothing.
func OnlineGreedy(in *Instance, order []int) (*Arrangement, error) {
	return online.Run(in, order, online.NewGreedy(in, 0))
}

// OnlineThreshold is OnlineGreedy with a reservation rule: the last
// guard·cv seats of every event are reserved for pairs of weight ≥ tau,
// protecting late high-value arrivals from early low-value fill. guard is
// clamped to [0,1]; a NaN tau or guard is rejected with an *OnlineRuleError
// before any arrival.
func OnlineThreshold(in *Instance, order []int, tau, guard float64) (*Arrangement, error) {
	if err := online.CheckRule(tau, guard); err != nil {
		return nil, err
	}
	return online.Run(in, order, online.NewThreshold(in, tau, guard, 0))
}

// Sharded online serving (internal/shard): the arrival stream is partitioned
// across S shards, each running an independent online planner on its own
// goroutine against a lease on a slice of every event's capacity, with
// leases renewed between arrival batches. The merged arrangement is feasible
// by construction and bit-identical for every worker count.
type (
	// ShardOptions configures sharded serving (shard count, batch size,
	// seed, and the per-shard reservation rule Tau/Guard, where Guard 0 is
	// greedy).
	ShardOptions = shard.Options
	// ShardResult carries the merged arrangement plus lease-protocol
	// diagnostics.
	ShardResult = shard.Result
	// ShardConfigError is the typed error ServeSharded returns on invalid
	// configuration (S ≤ 0, nil instance, negative batch or cache size, a
	// NaN Tau, a Guard that is NaN or outside [0,1]) instead of panicking.
	ShardConfigError = shard.ConfigError
	// ShardLeaseError reports a lease-invariant violation detected at a
	// renewal boundary (a renewer bug, surfaced instead of risking a
	// double-booked seat).
	ShardLeaseError = shard.LeaseError
	// OnlineBudgetError is the typed error of the budget-owning online
	// planner constructor (wrong length, negative or over-committed
	// leases).
	OnlineBudgetError = online.BudgetError
	// OnlineRuleError is the typed error of OnlineThreshold when tau or
	// guard is NaN.
	OnlineRuleError = online.RuleError
	// ShardBoundStats is the live LP-bound tracker's outcome
	// (ShardResult.Bound; enable with ShardOptions.LiveBound): the
	// remaining-opportunity bound after each batch, per-update planner
	// latencies, and the bound planner's warm/cold solve counters.
	ShardBoundStats = shard.BoundStats
)

// ServeSharded replays the arrival order across opt.Shards shards and
// returns the merged arrangement (see internal/shard for the lease
// protocol).
func ServeSharded(in *Instance, order []int, opt ShardOptions) (*ShardResult, error) {
	return shard.Serve(in, order, opt)
}

// AlgorithmNames lists the names accepted by Solve, in display order.
func AlgorithmNames() []string {
	return []string{"lp-packing", "lp-packing+fill", "greedy", "random-u", "random-v", "local-search", "optimal"}
}

// Solve runs the named algorithm on the instance. Recognized names are
// listed by AlgorithmNames; "gg" is an alias for "greedy". The seed drives
// any internal randomness (ignored by deterministic algorithms).
func Solve(in *Instance, algorithm string, seed int64) (*Arrangement, error) {
	switch algorithm {
	case "lp-packing":
		res, err := LPPacking(in, LPPackingOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Arrangement, nil
	case "lp-packing+fill":
		res, err := LPPacking(in, LPPackingOptions{Seed: seed, GreedyFill: true})
		if err != nil {
			return nil, err
		}
		return res.Arrangement, nil
	case "greedy", "gg":
		return Greedy(in), nil
	case "random-u":
		return RandomU(in, seed), nil
	case "random-v":
		return RandomV(in, seed), nil
	case "local-search":
		return LocalSearch(in, Greedy(in), 0), nil
	case "optimal":
		arr, _, err := Optimal(in)
		return arr, err
	default:
		return nil, fmt.Errorf("igepa: unknown algorithm %q (have %v)", algorithm, AlgorithmNames())
	}
}
