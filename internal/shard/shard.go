// Package shard serves online IGEPA arrival streams across S independent
// shards — the serving architecture for platform-scale traffic, where one
// global planner over one global capacity table would serialize every
// arrival.
//
// # Partition
//
// Users are partitioned across shards by a stateless hash of (seed, user)
// (xrand.Hash64), so shard membership depends only on the seed — never on
// arrival order, batch boundaries or worker scheduling. Events are shared:
// every shard may grant seats of every event, but only out of its own
// capacity lease.
//
// # Capacity leases
//
// Each shard holds a lease on a slice of every event's capacity: a budget
// vector budget[s][v] with the invariant
//
//	Σ_s budget[s][v] ≤ cv   for every event v, at every instant,
//
// which makes the merged arrangement feasible by construction — no seat can
// be granted twice because no seat is ever leased twice. Initially each
// event's capacity is split evenly, the remainder rotated by event index so
// no shard systematically collects the extra seats. Arrivals are processed
// in batches of B; between batches the coordinator renews the leases:
// every shard's unused seats return to the pool and the pool is re-split
// according to the lease policy. Consumed seats stay with the shard that
// granted them, so renewal never invalidates a past grant. Renewal is what
// keeps utility loss from capacity fragmentation bounded: a shard that
// received seats its users never wanted holds them for at most one batch.
//
// # Lease policies
//
// The re-split rule is Options.Lease:
//
//   - LeaseDemand (default): each event's free pool is split in proportion
//     to the shards' pending-bidder counts for the next batch — the
//     coordinator knows the batch composition before dispatch, so seats go
//     where bidders are about to arrive. Events nobody in the next batch
//     bids on fall back to the even split.
//   - LeaseEven: the pool is re-split evenly, remainder rotated by (event,
//     epoch) — the PR-2 protocol, kept as the ablation baseline.
//   - LeaseLP: the coordinator solves a small transportation LP over
//     (shard, event) seat grants — maximizing predicted next-batch value
//     subject to the free pool, per-shard attendance caps and per-pair
//     demand caps — on a persistent warm-started solver (lp.Solver): the
//     LP's shape is fixed across renewals, so each round is a bounds+
//     objective delta re-solved from the previous basis.
//
// # Determinism and merge
//
// Within a batch the shards run concurrently (one planner per shard on the
// bounded par pool), each writing only its own arrangement part and its own
// planner state, and reading only its own lease vector (written exclusively
// between batches). The result is therefore a pure function of
// (instance, order, Options) — bit-identical for every Workers value and
// GOMAXPROCS — and the per-shard parts are merged with model.MergeDisjoint,
// which verifies the parts never overlap on a user.
package shard

import (
	"fmt"
	"time"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/xrand"
)

// DefaultBatch is the lease-renewal period (arrivals per epoch) used when
// Options.Batch is 0.
const DefaultBatch = 128

// shardSalt decorrelates the user→shard hash from other uses of the seed
// (interest tables, RNG streams).
const shardSalt = 0x5eed

// PlannerKind selects the per-shard online policy.
type PlannerKind int

const (
	// PlannerGreedy runs online.GreedyPlanner per shard.
	PlannerGreedy PlannerKind = iota
	// PlannerThreshold runs online.ThresholdPlanner per shard (Tau/Guard
	// from Options); the guard protects a fraction of each shard's lease.
	PlannerThreshold
)

// String implements fmt.Stringer.
func (k PlannerKind) String() string {
	switch k {
	case PlannerGreedy:
		return "greedy"
	case PlannerThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("PlannerKind(%d)", int(k))
	}
}

// ParsePlannerKind parses the -planner flag values, the String names.
func ParsePlannerKind(s string) (PlannerKind, error) {
	switch s {
	case "greedy":
		return PlannerGreedy, nil
	case "threshold":
		return PlannerThreshold, nil
	default:
		return 0, fmt.Errorf("unknown planner %q (want greedy or threshold)", s)
	}
}

// LeasePolicy selects how the coordinator re-splits each event's free seat
// pool at renewal time.
type LeasePolicy int

const (
	// LeaseDemand splits each pool in proportion to the shards' pending
	// bidder counts for the next batch (largest-remainder rounding; even
	// split for events with no pending demand). The default.
	LeaseDemand LeasePolicy = iota
	// LeaseEven splits each pool evenly, remainder rotated by (event,
	// epoch) — the original protocol, kept for ablation.
	LeaseEven
	// LeaseLP solves a transportation LP over (shard, event) grants on a
	// persistent warm-started solver and leases seats along its optimum.
	LeaseLP
)

// String implements fmt.Stringer.
func (l LeasePolicy) String() string {
	switch l {
	case LeaseDemand:
		return "demand"
	case LeaseEven:
		return "even"
	case LeaseLP:
		return "lp"
	default:
		return fmt.Sprintf("LeasePolicy(%d)", int(l))
	}
}

// ParseLeasePolicy parses the -lease flag values, the String names; ""
// is LeaseDemand, the default.
func ParseLeasePolicy(s string) (LeasePolicy, error) {
	switch s {
	case "", "demand":
		return LeaseDemand, nil
	case "even":
		return LeaseEven, nil
	case "lp":
		return LeaseLP, nil
	default:
		return 0, fmt.Errorf("unknown lease policy %q (want demand, even or lp)", s)
	}
}

// Options configures Serve.
type Options struct {
	// Shards is S, the number of independent serving shards. It must be
	// positive; Serve and NewEngine return a *ConfigError otherwise.
	Shards int
	// Batch is B, the number of arrivals between lease renewals.
	// 0 means DefaultBatch; negative is a *ConfigError.
	Batch int
	// Workers bounds the worker pool running the shard planners; 0 means
	// GOMAXPROCS. Results are bit-identical for every value.
	Workers int
	// Seed drives the user→shard partition hash.
	Seed int64
	// Planner selects the per-shard policy.
	Planner PlannerKind
	// Tau, Guard parameterize PlannerThreshold (see online.ThresholdPlanner).
	Tau, Guard float64
	// MaxSetsPerUser caps per-user admissible-set enumeration
	// (0 = package default).
	MaxSetsPerUser int
	// Lease selects the renewal policy (default LeaseDemand).
	Lease LeasePolicy
	// RecordLatency, when set, measures each arrival's decision latency and
	// returns the samples in Result.Latencies. Timing adds a clock read per
	// arrival and has no effect on decisions.
	RecordLatency bool
	// CacheSize is ignored, except that a negative value is still a
	// *ConfigError.
	//
	// Deprecated: it sized a per-shard cache of admissible-set
	// enumerations; the planners now search for the best set directly.
	CacheSize int
	// ClusterShards, when positive, puts the engine in cluster mode: this
	// process hosts exactly one shard (Shards must be 1) of a
	// ClusterShards-wide multi-process deployment, holding the lease slice a
	// single-process ClusterShards-shard engine would give shard
	// ClusterIndex. Renewal arrives over the wire via InstallLease (driven
	// by a router-side Coordinator); RenewLeases is disabled. Seed must
	// match across the cluster and the router — it drives the user→shard
	// hash.
	ClusterShards int
	// ClusterIndex is this process's shard index in [0, ClusterShards).
	ClusterIndex int
	// LiveBound, when set, keeps an incremental LP planner (core.Planner)
	// over a shadow copy of the instance, updated after every dispatched
	// batch: served users leave the shadow problem and consumed seats leave
	// its capacities, so the planner's objective is a live upper bound on
	// the utility still reachable (committed + remaining ≥ best total).
	// Results and decisions are unchanged; the tracker's outcome lands in
	// Result.Bound and behind Engine.LiveBound/BoundStats. Costs one warm
	// LP re-solve plus a delta-scoped re-round per batch.
	LiveBound bool
	// LP configures the LP solvers this engine creates, the LeaseLP split
	// solver and the LiveBound planner's: its worker bound, which defaults
	// to Workers, and its phase-timer sink. A negative LP.Workers surfaces
	// as *lp.OptionError from the first solve.
	LP lp.Revised
}

// lpConfig is LP with Workers as its worker bound's default.
func (o *Options) lpConfig() lp.Revised {
	cfg := o.LP
	if cfg.Workers == 0 {
		cfg.Workers = o.Workers
	}
	return cfg
}

// Result carries the merged arrangement plus the serving diagnostics.
type Result struct {
	Arrangement *model.Arrangement
	Utility     float64

	Shards int
	Batch  int
	// Epochs is the number of arrival batches processed.
	Epochs int
	// LeaseRenewals is the number of renewal rounds (Epochs−1 when more
	// than one shard runs, 0 otherwise).
	LeaseRenewals int
	// MovedSeats is the total number of seats whose owning shard changed
	// across all renewals — the lease-protocol traffic a distributed
	// deployment would pay in coordination messages.
	MovedSeats int
	// Arrivals[s] is the number of arrivals served by shard s.
	Arrivals []int
	// Latencies[u] is user u's decision latency (only when
	// Options.RecordLatency; zero for users absent from the order).
	Latencies []time.Duration
	// LeaseSolves counts warm/cold LP solves of the lease-split LP
	// (LeaseLP only).
	LeaseSolves lp.SolverStats
	// Cache is always zero.
	//
	// Deprecated: see Options.CacheSize.
	Cache admissible.CacheStats
	// Bound is the live LP-bound tracker's outcome (nil unless
	// Options.LiveBound).
	Bound *BoundStats
}

// ShardOf returns the shard in [0, shards) owning user u. The partition is
// a pure function of (seed, u, shards).
func ShardOf(seed int64, u, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(xrand.Hash64(seed, u, shardSalt) % uint64(shards))
}

// shardPlanner pairs a planner's Arrive/Release with its load vector so the
// coordinator can read per-shard consumption at renewal time regardless of
// the concrete policy.
type shardPlanner struct {
	arrive  func(u int) []int
	release func(events []int)
	loads   []int
}

// CheckOrder validates an arrival order against the instance: every user in
// range, no duplicates — the contract under which Serve and the replay
// tooling dispatch batches unchecked.
func CheckOrder(in *model.Instance, order []int) error {
	nu := in.NumUsers()
	seen := make([]bool, nu)
	for _, u := range order {
		if u < 0 || u >= nu {
			return fmt.Errorf("shard: arrival of unknown user %d", u)
		}
		if seen[u] {
			return fmt.Errorf("shard: user %d arrived twice", u)
		}
		seen[u] = true
	}
	return nil
}

// Serve replays the arrival order across Options.Shards shards and returns
// the merged arrangement. Users absent from order receive no events; it
// errors on out-of-range or duplicate arrivals, mirroring online.Run.
// Invalid configurations yield a *ConfigError.
//
// Serve is a thin driver over Engine: one DispatchBatch per B arrivals, one
// RenewLeases between batches fed with the next batch's composition. The
// HTTP serving layer's replay mode drives the identical engine the same
// way, so its decisions are bit-identical to Serve's by construction.
func Serve(in *model.Instance, order []int, opt Options) (*Result, error) {
	e, err := NewEngine(in, opt)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := CheckOrder(in, order); err != nil {
		return nil, err
	}
	b := e.Batch()
	for start := 0; start < len(order); start += b {
		end := min(start+b, len(order))
		e.DispatchBatch(order[start:end])
		if end < len(order) && e.Shards() > 1 {
			if _, err := e.RenewLeases(order[end:min(end+b, len(order))]); err != nil {
				return nil, err
			}
		}
	}
	return e.Result()
}

// leaseRenewer drives the between-batch renewal rounds for one Serve call.
// It carries the policy-specific state: the pending-demand tallies for
// LeaseDemand, plus the persistent warm-started split LP for LeaseLP.
type leaseRenewer struct {
	in       *model.Instance
	budgets  [][]int
	planners []shardPlanner
	opt      Options
	s, nv    int

	newRem []int // per-shard scratch, reused every event

	// demand tallies for the next batch (LeaseDemand, LeaseLP)
	demand    []int     // [s*nv+v]: pending bidders of shard s for event v
	value     []float64 // [s*nv+v]: summed pair weight of those bidders
	attCap    []int     // [s]: summed user capacity of the shard's next batch
	fracOrder []int     // largest-remainder scratch
	frac      []float64

	// LeaseLP state
	solver  *lp.Solver
	lpReady bool
	delta   lp.ProblemDelta
	pool    []int // per-event free seats, reused every renewal
}

func newLeaseRenewer(in *model.Instance, budgets [][]int, planners []shardPlanner, opt Options) *leaseRenewer {
	s := len(budgets)
	r := &leaseRenewer{
		in: in, budgets: budgets, planners: planners, opt: opt,
		s: s, nv: in.NumEvents(),
		newRem: make([]int, s),
	}
	if opt.Lease != LeaseEven && s > 1 {
		r.demand = make([]int, s*r.nv)
		r.value = make([]float64, s*r.nv)
		r.attCap = make([]int, s)
		r.fracOrder = make([]int, s)
		r.frac = make([]float64, s)
	}
	return r
}

// close releases the split LP's solver state to the arena pool.
func (r *leaseRenewer) close() {
	if r != nil && r.solver != nil {
		r.solver.Release()
	}
}

// solveStats reports the split LP's warm/cold counters (zero unless LeaseLP
// ran).
func (r *leaseRenewer) solveStats() lp.SolverStats {
	if r.solver == nil {
		return lp.SolverStats{}
	}
	return r.solver.Stats()
}

// renew performs one renewal round before the next batch (whose arrivals are
// given) and returns the number of seats that changed owner.
func (r *leaseRenewer) renew(epoch int, next []int) int {
	switch r.opt.Lease {
	case LeaseEven:
		return renewLeases(r.in, r.budgets, r.planners, epoch, r.newRem)
	case LeaseLP:
		r.tallyDemand(next)
		if moved, ok := r.renewLP(epoch); ok {
			return moved
		}
		// LP unavailable (numerical failure): demand split is the safety net.
		return r.renewDemand(epoch)
	default: // LeaseDemand
		r.tallyDemand(next)
		return r.renewDemand(epoch)
	}
}

// tallyDemand recomputes the per-(shard, event) pending-bidder counts,
// pending pair values and per-shard attendance caps from the next batch.
func (r *leaseRenewer) tallyDemand(next []int) {
	for i := range r.demand {
		r.demand[i] = 0
		r.value[i] = 0
	}
	for i := range r.attCap {
		r.attCap[i] = 0
	}
	wc := r.in.Weights()
	for _, u := range next {
		si := ShardOf(r.opt.Seed, u, r.s)
		usr := &r.in.Users[u]
		r.attCap[si] += min(usr.Capacity, len(usr.Bids))
		row := wc.Row(u)
		for i, v := range usr.Bids {
			r.demand[si*r.nv+v]++
			r.value[si*r.nv+v] += row[i]
		}
	}
}

// renewDemand splits each event's free pool in proportion to the shards'
// pending-bidder counts (largest-remainder rounding, deterministic
// tie-break on shard index); events with no pending demand fall back to the
// even split with the rotating remainder. Σ_s budget[s][v] = cv is restored
// exactly, and consumed seats never move.
func (r *leaseRenewer) renewDemand(epoch int) int {
	moved := 0
	for v := 0; v < r.nv; v++ {
		used := 0
		for si := 0; si < r.s; si++ {
			used += r.planners[si].loads[v]
		}
		pool := r.in.Events[v].Capacity - used
		total := 0
		for si := 0; si < r.s; si++ {
			total += r.demand[si*r.nv+v]
		}
		if total == 0 {
			evenSplit(r.newRem, pool, v+epoch)
		} else {
			given := 0
			for si := 0; si < r.s; si++ {
				share := pool * r.demand[si*r.nv+v] / total
				r.newRem[si] = share
				r.frac[si] = float64(pool*r.demand[si*r.nv+v])/float64(total) - float64(share)
				r.fracOrder[si] = si
				given += share
			}
			// hand the leftover seats to the largest fractional remainders
			sortByFracDesc(r.fracOrder, r.frac)
			for k := 0; k < pool-given; k++ {
				r.newRem[r.fracOrder[k%r.s]]++
			}
		}
		moved += r.applyEvent(v)
	}
	return moved
}

// applyEvent installs r.newRem as event v's new free-seat split and counts
// moved seats.
func (r *leaseRenewer) applyEvent(v int) int {
	moved := 0
	for si := 0; si < r.s; si++ {
		load := r.planners[si].loads[v]
		if oldRem := r.budgets[si][v] - load; r.newRem[si] > oldRem {
			moved += r.newRem[si] - oldRem
		}
		r.budgets[si][v] = load + r.newRem[si]
	}
	return moved
}

// evenSplit fills newRem with pool seats split evenly across the shards,
// the remainder rotated by offset so extra seats circulate — the one copy
// of the base/remainder rule shared by LeaseEven and the zero-demand
// fallback of LeaseDemand.
func evenSplit(newRem []int, pool, offset int) {
	s := len(newRem)
	base, rem := pool/s, pool%s
	for si := range newRem {
		newRem[si] = base
	}
	for k := 0; k < rem; k++ {
		newRem[(offset+k)%s]++
	}
}

// sortByFracDesc sorts the shard indices by fractional part descending,
// ties by shard index ascending — an insertion sort over at most a few
// dozen shards.
func sortByFracDesc(idx []int, frac []float64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && (frac[idx[j]] < frac[x] || (frac[idx[j]] == frac[x] && idx[j] > x)) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// --- LP lease policy ------------------------------------------------------
//
// The split LP has one variable y_{s,v} per (shard, event) — the seats
// leased to shard s for event v in the next epoch — and maximizes the
// predicted value of the next batch:
//
//	max  Σ c_{s,v}·y_{s,v}
//	s.t. Σ_s y_{s,v}         ≤ pool_v        (event rows: the free pool)
//	     Σ_v y_{s,v}         ≤ attCap_s      (shard rows: attendance caps)
//	     y_{s,v}             ≤ demand_{s,v}  (pair rows: pending bidders)
//
// with c_{s,v} the mean pending pair weight. The shape (rows, columns,
// nonzeros) is identical at every renewal — only bounds and objective move —
// so after the first cold solve every round is a ProblemDelta re-solved warm
// from the previous basis: exactly the regime lp.Solver.Resolve exists for.
// Leftover pool seats (demand below supply) are parked by the even rotation
// so Σ_s budget = cv stays exact.

// lpRow layout: event rows [0,nv), shard rows [nv,nv+s), pair rows
// [nv+s, nv+s+s*nv) in (shard-major, event-minor) order — matching the
// column order y_{0,0..nv-1}, y_{1,·}, ...

// buildSplitLP assembles the first epoch's problem.
func (r *leaseRenewer) buildSplitLP(pool []int) *lp.Problem {
	s, nv := r.s, r.nv
	m := nv + s + s*nv
	p := &lp.Problem{NumRows: m, B: make([]float64, m)}
	for v := 0; v < nv; v++ {
		p.B[v] = float64(pool[v])
	}
	for si := 0; si < s; si++ {
		p.B[nv+si] = float64(r.attCap[si])
	}
	for i, d := range r.demand {
		p.B[nv+s+i] = float64(d)
	}
	p.Reserve(s*nv, 3*s*nv)
	for si := 0; si < s; si++ {
		for v := 0; v < nv; v++ {
			i := si*nv + v
			c := 0.0
			if r.demand[i] > 0 {
				c = r.value[i] / float64(r.demand[i])
			}
			p.AddColumn(c, []int{v, nv + si, nv + s + i})
		}
	}
	return p
}

// renewLP computes the demand-optimal split by (re-)solving the split LP
// warm and rounding its optimum per event with the largest-remainder rule.
// Returns ok=false when the solve fails; the caller falls back to the
// proportional split.
func (r *leaseRenewer) renewLP(epoch int) (int, bool) {
	s, nv := r.s, r.nv
	if r.pool == nil {
		r.pool = make([]int, nv)
	}
	pool := r.pool
	for v := 0; v < nv; v++ {
		used := 0
		for si := 0; si < s; si++ {
			used += r.planners[si].loads[v]
		}
		pool[v] = r.in.Events[v].Capacity - used
	}

	var sol *lp.Solution
	var err error
	if !r.lpReady {
		if r.solver == nil {
			r.solver = lp.NewSolver(r.opt.lpConfig())
		}
		sol, err = r.solver.Solve(r.buildSplitLP(pool))
		if err == nil {
			r.lpReady = true
		}
	} else {
		d := &r.delta
		d.SetB = d.SetB[:0]
		d.SetC = d.SetC[:0]
		for v := 0; v < nv; v++ {
			d.SetB = append(d.SetB, lp.BoundChange{Row: v, B: float64(pool[v])})
		}
		for si := 0; si < s; si++ {
			d.SetB = append(d.SetB, lp.BoundChange{Row: nv + si, B: float64(r.attCap[si])})
		}
		for i, dem := range r.demand {
			d.SetB = append(d.SetB, lp.BoundChange{Row: nv + s + i, B: float64(dem)})
			c := 0.0
			if dem > 0 {
				c = r.value[i] / float64(dem)
			}
			d.SetC = append(d.SetC, lp.ObjChange{Col: i, C: c})
		}
		sol, err = r.solver.Resolve(*d)
	}
	if err != nil {
		r.lpReady = false
		return 0, false
	}

	moved := 0
	for v := 0; v < nv; v++ {
		given := 0
		for si := 0; si < s; si++ {
			y := sol.X[si*nv+v]
			share := int(y + 1e-6) // y is ≥ 0 up to solver round-off
			if share > pool[v]-given {
				share = pool[v] - given
			}
			r.newRem[si] = share
			r.frac[si] = y - float64(share)
			r.fracOrder[si] = si
			given += share
		}
		if given < pool[v] {
			// leftover (demand below supply, or fractional optimum): top up
			// by fractional part, then rotate the rest evenly
			sortByFracDesc(r.fracOrder, r.frac)
			left := pool[v] - given
			for k := 0; k < min(left, s); k++ {
				r.newRem[r.fracOrder[k]]++
			}
			for k := s; k < left; k++ {
				r.newRem[(v+epoch+k)%s]++
			}
		}
		moved += r.applyEvent(v)
	}
	return moved, true
}

// renewLeases implements the renewal round: per event, reclaim every
// shard's unused seats and re-split the free pool evenly, rotating the
// remainder by (event, epoch) so the extra seats circulate. Consumed seats
// stay with their shard, so Σ_s budget[s][v] = cv is restored exactly.
// Returns the number of seats that changed owner.
func renewLeases(in *model.Instance, budgets [][]int, planners []shardPlanner, epoch int, newRem []int) int {
	s := len(budgets)
	moved := 0
	for v := 0; v < in.NumEvents(); v++ {
		used := 0
		for si := 0; si < s; si++ {
			used += planners[si].loads[v]
		}
		pool := in.Events[v].Capacity - used
		evenSplit(newRem, pool, v+epoch)
		for si := 0; si < s; si++ {
			load := planners[si].loads[v]
			if oldRem := budgets[si][v] - load; newRem[si] > oldRem {
				moved += newRem[si] - oldRem
			}
			budgets[si][v] = load + newRem[si]
		}
	}
	return moved
}
