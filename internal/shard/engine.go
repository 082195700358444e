package shard

import (
	"fmt"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/online"
	"github.com/ebsn/igepa/internal/par"
)

// ConfigError is the typed error Serve, NewEngine and the rest of the
// serving stack return on an invalid configuration — a nil instance, a
// non-positive shard count, a negative batch size — instead of panicking
// somewhere inside the lease machinery.
type ConfigError struct {
	Field  string // the offending Options field or argument
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("shard: invalid configuration: %s: %s", e.Field, e.Reason)
}

// LeaseError is the typed error returned when a renewal round leaves the
// lease table over-committed (Σ_s budget[s][v] ≠ cv) — the invariant that
// makes merged arrangements feasible by construction. It indicates a bug in
// a lease policy, never a caller mistake, and the defensive check turns a
// would-be double-booked seat into a clean failure.
type LeaseError struct {
	Event            int
	Leased, Capacity int
}

func (e *LeaseError) Error() string {
	return fmt.Sprintf("shard: lease invariant violated: event %d has %d seats leased, capacity %d",
		e.Event, e.Leased, e.Capacity)
}

// Engine is the sharded serving core extracted from Serve: S per-shard
// online planners over capacity leases, the lease renewer, and the
// per-shard arrangement parts. Serve drives it batch-by-batch over a fixed
// arrival order; the HTTP serving layer (internal/server) drives the same
// engine from live request queues, which is what makes the server's replay
// mode bit-identical to Serve — there is only one implementation of the
// serving semantics.
//
// An Engine is not synchronized. Serve owns it outright; concurrent drivers
// must serialize DispatchBatch/RenewLeases/Result against everything else,
// and may interleave per-shard calls (ArriveOn, CancelOn, Assignment,
// ShardUtility with the same si) only under a per-shard lock of their own.
type Engine struct {
	in   *model.Instance
	opt  Options
	s, b int

	planners []shardPlanner
	parts    []*model.Arrangement
	budgets  [][]int
	renewer  *leaseRenewer
	wc       *model.WeightCache
	bound    *boundTracker // live LP bound (Options.LiveBound)

	// Cluster mode (Options.ClusterShards > 0): this engine is shard
	// clusterIdx of a clusterS-wide deployment and holds only its lease
	// slice. ownsOverride records users migrated onto (true) or off of
	// (false) this shard; ownMu guards it because ownership is read on the
	// request path while migrations write it under the serving locks.
	clusterS     int
	clusterIdx   int
	ownMu        sync.RWMutex
	ownsOverride map[int]bool

	epochs, renewals, moved int
	arrivals                []int
	shardUtil               []float64
	latencies               []time.Duration
	batches                 [][]int // DispatchBatch partition scratch

	// Engine-owned LP phase-timer sinks, one per persistent solver: the
	// lease renewer's split LP and the live-bound planner's solver each
	// need their own (PhaseTimers is not synchronized, and a renewal and a
	// bound update may interleave under the caller's exclusion). Nil when
	// the caller supplied Options.LP.Timers — then the caller owns phase
	// profiling and LPStats reports zeros for the phases.
	leaseTimers *lp.PhaseTimers
	boundTimers *lp.PhaseTimers

	closed bool
}

// NewEngine validates the configuration and assembles the serving state:
// planners and even initial leases.
// Configuration problems are reported as *ConfigError; nothing in the
// serving stack panics on caller input.
func NewEngine(in *model.Instance, opt Options) (*Engine, error) {
	if in == nil {
		return nil, &ConfigError{Field: "instance", Reason: "nil instance"}
	}
	if err := in.Check(); err != nil {
		return nil, &ConfigError{Field: "instance", Reason: err.Error()}
	}
	if opt.Shards <= 0 {
		return nil, &ConfigError{Field: "Shards", Reason: fmt.Sprintf("must be positive, got %d", opt.Shards)}
	}
	if opt.Batch < 0 {
		return nil, &ConfigError{Field: "Batch", Reason: fmt.Sprintf("must be non-negative, got %d", opt.Batch)}
	}
	if opt.CacheSize < 0 {
		return nil, &ConfigError{Field: "CacheSize", Reason: fmt.Sprintf("must be non-negative, got %d", opt.CacheSize)}
	}
	switch opt.Planner {
	case PlannerGreedy, PlannerThreshold:
	default:
		return nil, &ConfigError{Field: "Planner", Reason: fmt.Sprintf("unknown planner kind %v", opt.Planner)}
	}
	switch opt.Lease {
	case LeaseDemand, LeaseLP:
	default:
		return nil, &ConfigError{Field: "Lease", Reason: fmt.Sprintf("unknown lease policy %v", opt.Lease)}
	}
	if opt.ClusterShards < 0 {
		return nil, &ConfigError{Field: "ClusterShards", Reason: fmt.Sprintf("must be non-negative, got %d", opt.ClusterShards)}
	}
	if opt.ClusterShards > 0 {
		if opt.Shards != 1 {
			return nil, &ConfigError{Field: "Shards", Reason: fmt.Sprintf(
				"a cluster-mode engine hosts exactly one shard, got Shards=%d", opt.Shards)}
		}
		if opt.ClusterIndex < 0 || opt.ClusterIndex >= opt.ClusterShards {
			return nil, &ConfigError{Field: "ClusterIndex", Reason: fmt.Sprintf(
				"must be in [0,%d), got %d", opt.ClusterShards, opt.ClusterIndex)}
		}
		if opt.LiveBound {
			return nil, &ConfigError{Field: "LiveBound", Reason: "the live bound shadows the whole instance; run it at the router, not on one cluster shard"}
		}
	}

	s := opt.Shards
	b := opt.Batch
	if b == 0 {
		b = DefaultBatch
	}
	nu, nv := in.NumUsers(), in.NumEvents()

	// Materialize the shared weight cache before any parallel stage so the
	// lazy initialization never races (same contract as core.LPPacking),
	// and the conflict matrix once for all S planners.
	wc := in.Weights()
	conf := conflict.FromFunc(nv, in.Conflicts)

	var budgets [][]int
	if opt.ClusterShards > 0 {
		// This process leases exactly the slice a single-process S-shard
		// engine would hand shard ClusterIndex — the root of the cluster's
		// bit-identity to ServeSharded.
		budgets = [][]int{initialBudgets(in, opt.ClusterShards)[opt.ClusterIndex]}
	} else {
		budgets = initialBudgets(in, s)
	}

	e := &Engine{
		in: in, opt: opt, s: s, b: b,
		planners:  make([]shardPlanner, s),
		parts:     make([]*model.Arrangement, s),
		budgets:   budgets,
		wc:        wc,
		arrivals:  make([]int, s),
		shardUtil: make([]float64, s),
		batches:   make([][]int, s),

		clusterS:   opt.ClusterShards,
		clusterIdx: opt.ClusterIndex,
	}
	if e.clusterS > 0 {
		e.ownsOverride = make(map[int]bool)
	}
	for si := 0; si < s; si++ {
		var err error
		switch opt.Planner {
		case PlannerGreedy:
			var p *online.GreedyPlanner
			p, err = online.NewGreedyBudgetShared(in, conf, budgets[si], opt.MaxSetsPerUser)
			if err == nil {
				e.planners[si] = shardPlanner{arrive: p.Arrive, release: p.Release, loads: p.Loads()}
			}
		case PlannerThreshold:
			var p *online.ThresholdPlanner
			p, err = online.NewThresholdBudgetShared(in, conf, budgets[si], opt.Tau, opt.Guard, opt.MaxSetsPerUser)
			if err == nil {
				e.planners[si] = shardPlanner{arrive: p.Arrive, release: p.Release, loads: p.Loads()}
			}
		}
		if err != nil {
			return nil, &ConfigError{Field: "budget", Reason: err.Error()}
		}
		e.parts[si] = model.NewArrangement(nu)
	}
	if opt.RecordLatency {
		e.latencies = make([]time.Duration, nu)
	}
	// Attach engine-owned phase timers unless the caller brought their own.
	// The sinks are passive accumulators read back via LPStats — they do
	// not alter pivoting, pricing or any other solver decision, so the
	// engine's bit-identity contract is unchanged by profiling.
	leaseOpt, boundOpt := opt, opt
	if opt.LP.Timers == nil {
		e.leaseTimers = &lp.PhaseTimers{}
		e.boundTimers = &lp.PhaseTimers{}
		leaseOpt.LP.Timers = e.leaseTimers
		boundOpt.LP.Timers = e.boundTimers
	}
	if opt.LiveBound {
		bt, err := newBoundTracker(in, s, boundOpt)
		if err != nil {
			return nil, err
		}
		e.bound = bt
	}
	e.renewer = newLeaseRenewer(in, budgets, e.planners, leaseOpt)
	return e, nil
}

// Shards returns S.
func (e *Engine) Shards() int { return e.s }

// Batch returns the normalized lease-renewal period B.
func (e *Engine) Batch() int { return e.b }

// ShardOf returns the shard owning user u under this engine's seed.
func (e *Engine) ShardOf(u int) int { return ShardOf(e.opt.Seed, u, e.s) }

// DispatchBatch processes one global arrival batch: the users are
// partitioned onto their shards and each shard serves its sub-batch in
// order, all shards in parallel on the bounded pool. Decisions are written
// into the per-shard arrangement parts; an empty batch is a no-op. Callers
// own order validation (range, duplicates) — Serve checks the whole order
// upfront, the HTTP layer checks per request.
func (e *Engine) DispatchBatch(users []int) {
	if len(users) == 0 {
		return
	}
	for si := range e.batches {
		e.batches[si] = e.batches[si][:0]
	}
	for _, u := range users {
		si := e.ShardOf(u)
		e.batches[si] = append(e.batches[si], u)
		e.arrivals[si]++
	}
	par.Do(e.opt.Workers, e.s, func(si int) {
		for _, u := range e.batches[si] {
			if e.latencies != nil {
				t0 := time.Now()
				e.arriveOn(si, u)
				e.latencies[u] = time.Since(t0)
			} else {
				e.arriveOn(si, u)
			}
		}
	})
	e.epochs++
	if e.bound != nil {
		e.UpdateBound() // failures are counted in BoundStats.Errors
	}
}

// arriveOn serves user u on shard si and accounts the granted utility.
func (e *Engine) arriveOn(si, u int) []int {
	set := e.planners[si].arrive(u)
	e.parts[si].Sets[u] = set
	for _, v := range set {
		e.shardUtil[si] += e.wc.Of(u, v)
	}
	if e.bound != nil {
		e.bound.record(si, u, set, false)
	}
	return set
}

// ArriveOn serves a single arrival on shard si — the live serving layer's
// per-shard micro-batch path. The caller must route u to its owning shard
// (si == e.ShardOf(u)), serialize calls per shard, and never dispatch the
// same undecided user twice. Returns the granted events (sorted ascending).
func (e *Engine) ArriveOn(si, u int) []int {
	set := e.arriveOn(si, u)
	e.arrivals[si]++
	return set
}

// CancelOn revokes user u's assignment on shard si: the seats return to the
// shard's lease headroom (grantable on the next arrival, redistributable at
// the next renewal) and the user's part is cleared. Returns the freed
// events; nil if the user held nothing.
func (e *Engine) CancelOn(si, u int) []int {
	set := e.parts[si].Sets[u]
	if len(set) == 0 {
		return nil
	}
	e.planners[si].release(set)
	for _, v := range set {
		e.shardUtil[si] -= e.wc.Of(u, v)
	}
	e.parts[si].Sets[u] = nil
	if e.bound != nil {
		e.bound.record(si, u, set, true)
	}
	return set
}

// RenewLeases runs one lease-renewal round ahead of the next batch, whose
// arrivals (or best available prediction of them) are given. It returns the
// number of seats that changed owner and defensively re-checks the lease
// invariant, surfacing any violation as a *LeaseError.
//
// The renewal round number drives the even-split remainder rotation. It is
// e.renewals+1, which under Serve's schedule (one renewal per batch
// boundary) equals the dispatched-batch count — bit-identical to the
// historical epoch argument — while also advancing for live drivers that
// renew on arrival counts without ever calling DispatchBatch.
func (e *Engine) RenewLeases(next []int) (int, error) {
	if e.clusterS > 0 {
		// A cluster shard never renews itself: it holds one slice of the
		// lease table, and re-splitting needs every shard's loads. The
		// router-side Coordinator computes the split and installs it here
		// via InstallLease.
		return 0, &ConfigError{Field: "ClusterShards", Reason: "a cluster shard renews via InstallLease, not RenewLeases"}
	}
	moved := e.renewer.renew(e.renewals+1, next)
	e.moved += moved
	e.renewals++
	for v := 0; v < e.in.NumEvents(); v++ {
		sum := 0
		for si := 0; si < e.s; si++ {
			sum += e.budgets[si][v]
		}
		if sum != e.in.Events[v].Capacity {
			return moved, &LeaseError{Event: v, Leased: sum, Capacity: e.in.Events[v].Capacity}
		}
	}
	return moved, nil
}

// Assignment returns a copy of user u's current assignment on shard si.
func (e *Engine) Assignment(si, u int) []int {
	return append([]int(nil), e.parts[si].Sets[u]...)
}

// EventLoad returns the total seats granted for event v across all shards.
func (e *Engine) EventLoad(v int) int {
	n := 0
	for si := 0; si < e.s; si++ {
		n += e.planners[si].loads[v]
	}
	return n
}

// ShardUtility returns the summed pair weight of shard si's current grants —
// the incrementally tracked per-shard share of Utility(M).
func (e *Engine) ShardUtility(si int) float64 { return e.shardUtil[si] }

// ArrivalsOn returns the number of arrivals shard si has served.
func (e *Engine) ArrivalsOn(si int) int { return e.arrivals[si] }

// LPStats is an allocation-light snapshot of the engine's two persistent
// LP solvers — the lease renewer's split LP and the live-bound planner's —
// for the serving layer's /statsz and /metrics surfaces. Unlike BoundStats
// it copies no trace slices, so mirroring it into metrics at every renewal
// point costs a few struct copies.
type LPStats struct {
	// Lease is the split-LP solver's counters (zeros unless Lease ==
	// LeaseLP has solved at least once).
	Lease lp.SolverStats
	// LeaseTimers is the accumulated per-phase time of the lease solver.
	LeaseTimers lp.PhaseTimers
	// Bound is the live-bound planner's solver counters (zeros unless
	// Options.LiveBound).
	Bound lp.SolverStats
	// BoundTimers is the accumulated per-phase time of the bound solver.
	BoundTimers lp.PhaseTimers
	// BoundUpdates / BoundErrors count bound re-solves and their failures.
	BoundUpdates, BoundErrors int
	// BoundRemaining is the latest remaining-opportunity bound.
	BoundRemaining float64
}

// LPStats snapshots both solvers. The caller must hold the same exclusion
// RenewLeases requires (the serving layer reads it under its shard locks at
// renewal points); the snapshot itself takes no engine locks.
func (e *Engine) LPStats() LPStats {
	st := LPStats{Lease: e.renewer.solveStats()}
	if e.leaseTimers != nil {
		st.LeaseTimers = *e.leaseTimers
	}
	if e.bound != nil {
		st.Bound = e.bound.planner.Stats()
		st.BoundUpdates = e.bound.updates
		st.BoundErrors = e.bound.errs
		st.BoundRemaining = e.bound.bound
		if e.boundTimers != nil {
			st.BoundTimers = *e.boundTimers
		}
	}
	return st
}

// Epochs returns the number of dispatched batches.
func (e *Engine) Epochs() int { return e.epochs }

// Renewals returns the number of lease-renewal rounds run so far.
func (e *Engine) Renewals() int { return e.renewals }

// MovedSeats returns the total seats that changed owner across renewals.
func (e *Engine) MovedSeats() int { return e.moved }

// LatencyOf returns user u's recorded decision latency (zero unless
// Options.RecordLatency and u has been dispatched).
func (e *Engine) LatencyOf(u int) time.Duration {
	if e.latencies == nil {
		return 0
	}
	return e.latencies[u]
}

// RefreshWeights re-materializes the engine's pair-weight table after the
// caller mutated user bids (and called Instance.RebuildBidders). The caller
// must hold every per-shard lock: planners read the same table.
func (e *Engine) RefreshWeights() { e.wc = e.in.Weights() }

// Snapshot merges the per-shard parts into one arrangement (users absent or
// cancelled hold nothing). The parts stay live; Snapshot may be called at
// any quiescent point.
func (e *Engine) Snapshot() (*model.Arrangement, error) {
	merged, err := model.MergeDisjoint(e.in.NumUsers(), e.parts...)
	if err != nil {
		return nil, fmt.Errorf("shard: merging shard arrangements: %w", err)
	}
	merged.Normalize()
	return merged, nil
}

// Result merges the shards and assembles the Serve result.
func (e *Engine) Result() (*Result, error) {
	merged, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Arrangement:   merged,
		Utility:       model.Utility(e.in, merged),
		Shards:        e.s,
		Batch:         e.b,
		Epochs:        e.epochs,
		LeaseRenewals: e.renewals,
		MovedSeats:    e.moved,
		Arrivals:      append([]int(nil), e.arrivals...),
		Latencies:     e.latencies,
		LeaseSolves:   e.renewer.solveStats(),
		Bound:         e.BoundStats(),
	}
	return res, nil
}

// Close releases the lease renewer's and bound planner's solver state to
// the arena pool. It is idempotent and nil-receiver-safe, so recovery error
// paths can always `defer Close()` — a failed boot leaves a nil engine, and
// an aborted warm boot may close an engine its owner will close again.
func (e *Engine) Close() {
	if e == nil || e.closed {
		return
	}
	e.closed = true
	e.renewer.close()
	e.bound.close()
}
