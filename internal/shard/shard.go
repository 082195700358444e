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
// along the next batch's demand. Consumed seats stay with the shard that
// granted them, so renewal never invalidates a past grant. Renewal is what
// keeps utility loss from capacity fragmentation bounded: a shard that
// received seats its users never wanted holds them for at most one batch.
//
// The re-split is proportional to demand: each event's free pool is split
// in proportion to the shards' pending-bidder counts for the next batch —
// the coordinator knows the batch composition before dispatch, so seats go
// where bidders are about to arrive. Events nobody in the next batch bids
// on fall back to the even split, remainder rotated by (event, epoch).
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
	"time"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/online"
	"github.com/ebsn/igepa/internal/xrand"
)

// DefaultBatch is the lease-renewal period (arrivals per epoch) used when
// Options.Batch is 0.
const DefaultBatch = 128

// shardSalt decorrelates the user→shard hash from other uses of the seed
// (interest tables, RNG streams).
const shardSalt = 0x5eed

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
	// Tau and Guard set every shard planner's reservation rule (see
	// online.GreedyPlanner): the last Guard fraction of each shard's lease
	// of an event is kept for pairs of weight ≥ Tau. Guard 0 is pure
	// greedy, and then Tau has no effect. A NaN Tau, or a Guard that is NaN
	// or outside [0,1], is a *ConfigError.
	Tau, Guard float64
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
	// Result.Bound and behind Engine.BoundStats. Costs one warm
	// LP re-solve plus a delta-scoped re-round per batch.
	LiveBound bool
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

// Serve replays the arrival order across Options.Shards shards and returns
// the merged arrangement. Users absent from order receive no events; it
// errors on out-of-range or duplicate arrivals (online.CheckOrder, the check
// online.Run makes).
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
	if err := online.CheckOrder(in, order); err != nil {
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

// leaseRenewer drives the between-batch renewal rounds for one Serve call
// (or one cluster Coordinator): it tallies the next batch's pending bidders
// per (shard, event) and re-splits every event's free pool along them.
type leaseRenewer struct {
	in      *model.Instance
	budgets [][]int
	loads   [][]int // loads[s][v]: seats shard s has granted of event v
	seed    int64
	s, nv   int

	newRem    []int // per-shard scratch, reused every event
	demand    []int // [s*nv+v]: pending bidders of shard s for event v
	fracOrder []int // largest-remainder scratch
	frac      []float64
}

func newLeaseRenewer(in *model.Instance, budgets, loads [][]int, seed int64) *leaseRenewer {
	s := len(budgets)
	r := &leaseRenewer{
		in: in, budgets: budgets, loads: loads, seed: seed,
		s: s, nv: in.NumEvents(),
		newRem: make([]int, s),
	}
	if s > 1 {
		r.demand = make([]int, s*r.nv)
		r.fracOrder = make([]int, s)
		r.frac = make([]float64, s)
	}
	return r
}

// renew performs one renewal round before the next batch (whose arrivals are
// given) and returns the number of seats that changed owner.
func (r *leaseRenewer) renew(epoch int, next []int) int {
	r.tallyDemand(next)
	return r.renewDemand(epoch)
}

// tallyDemand recomputes the per-(shard, event) pending-bidder counts from
// the next batch.
func (r *leaseRenewer) tallyDemand(next []int) {
	for i := range r.demand {
		r.demand[i] = 0
	}
	for _, u := range next {
		si := ShardOf(r.seed, u, r.s)
		for _, v := range r.in.Users[u].Bids {
			r.demand[si*r.nv+v]++
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
			used += r.loads[si][v]
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
		load := r.loads[si][v]
		if oldRem := r.budgets[si][v] - load; r.newRem[si] > oldRem {
			moved += r.newRem[si] - oldRem
		}
		r.budgets[si][v] = load + r.newRem[si]
	}
	return moved
}

// evenSplit fills newRem with pool seats split evenly across the shards,
// the remainder rotated by offset so extra seats circulate — renewDemand's
// fallback for an event with no pending demand.
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
