package shard

// The live LP bound: an engine-owned incremental planner (core.Planner)
// over a shadow copy of the instance, updated per dispatched batch (and at
// the live server's renewal points). Each served user leaves the shadow
// problem (their bids clear) and their granted seats leave its capacities;
// a cancellation restores both, and an in-place bid replacement for an
// undecided user (Engine.NoteBidUpdate) makes the shadow re-read their
// bids. The planner's objective is then a certified upper bound on the
// utility still reachable from the remaining bids and seats — the
// serving-time counterpart of Lemma 1's offline bound, cheap enough to
// keep per batch now that Planner.Update is delta-scoped.
//
// Bound maintenance never influences decisions: the shadow instance is
// private, updates run strictly after a batch's grants are final, and the
// per-shard pending queues are written only by their own shard's serving
// path (so the engine's worker-invariance contract is untouched).

import (
	"fmt"
	"time"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
)

// boundWindow bounds the retained trace/latency history so a long-running
// server's bound tracker uses constant memory; when the buffers grow past
// twice the window, the older half is dropped.
const boundWindow = 4096

// boundEvent is one serving action awaiting application to the shadow
// problem: a grant (bids leave, seats arena[lo:hi] leave), a cancel (bids
// re-read from the source instance, seats return), or a re-bid (restore =
// true with no seats: an undecided user's bids were replaced in place, so
// the shadow must re-read them).
type boundEvent struct {
	user    int
	lo, hi  int32 // seat slice in the shard's arena
	restore bool  // re-read bids from src (cancel / re-bid) instead of clearing
}

// boundShard is one shard's pending-event queue. Events and their seat
// lists live in flat per-shard arenas reset at every apply, so recording an
// arrival on the serving hot path allocates nothing in the steady state.
type boundShard struct {
	events []boundEvent
	arena  []int
}

// boundTracker is the engine's live-bound state.
type boundTracker struct {
	src     *model.Instance // the serving instance (for bid restores)
	shadow  *model.Instance
	planner *core.Planner
	pending []boundShard // per shard, drained under the engine driver

	bound   float64
	updates int
	errs    int
	trace   []float64
	lat     []time.Duration

	delta   core.Delta
	seat    []int // per-event net seat delta scratch
	touched []int
}

// BoundStats is the live LP bound's outcome, returned in Result.Bound and
// behind Engine.BoundStats (nil unless Options.LiveBound).
type BoundStats struct {
	// Remaining is the latest remaining-opportunity LP bound: committed
	// utility plus Remaining upper-bounds the best total still reachable.
	Remaining float64
	// Updates and Errors count planner bound updates (one per dispatched
	// batch, or per renewal point on the live server) and their failures.
	Updates, Errors int
	// Trace is the bound after each update (most recent boundWindow).
	Trace []float64
	// UpdateLatencies are the per-update planner latencies (same window) —
	// the cost of keeping the bound, reported separately from decision
	// latency.
	UpdateLatencies []time.Duration
	// Solver reports the bound planner's warm/cold LP counters.
	Solver lp.SolverStats
}

// newBoundTracker clones the instance and cold-solves the initial bound,
// accumulating the solver's phase times into timers.
func newBoundTracker(in *model.Instance, s int, opt Options, timers *lp.PhaseTimers) (*boundTracker, error) {
	shadow := in.Clone()
	pl, err := core.NewPlanner(shadow, core.Options{
		Seed: opt.Seed, Workers: opt.Workers, LP: lp.Revised{Timers: timers},
	})
	if err != nil {
		return nil, fmt.Errorf("shard: live-bound planner: %w", err)
	}
	return &boundTracker{
		src:     in,
		shadow:  shadow,
		planner: pl,
		pending: make([]boundShard, s),
		bound:   pl.Objective(),
		seat:    make([]int, in.NumEvents()),
	}, nil
}

// close releases the bound planner's solver state.
func (bt *boundTracker) close() {
	if bt != nil && bt.planner != nil {
		bt.planner.Close()
	}
}

// record appends an action to a shard's pending queue. Called only from
// that shard's serving path (or with every shard excluded, for re-bids), so
// pending[si] never sees concurrent writers.
func (bt *boundTracker) record(si, u int, events []int, restore bool) {
	ps := &bt.pending[si]
	lo := int32(len(ps.arena))
	ps.arena = append(ps.arena, events...)
	ps.events = append(ps.events, boundEvent{user: u, lo: lo, hi: int32(len(ps.arena)), restore: restore})
}

// apply drains every shard's pending queue into the shadow instance and
// re-solves the bound. Must run from the engine's (single-threaded) driver
// context — the same exclusion DispatchBatch and RenewLeases require.
func (bt *boundTracker) apply() (float64, error) {
	d := &bt.delta
	d.Users = d.Users[:0]
	d.Events = d.Events[:0]
	bt.touched = bt.touched[:0]
	n := 0
	for si := range bt.pending {
		ps := &bt.pending[si]
		for _, ev := range ps.events {
			if ev.restore {
				bt.shadow.Users[ev.user].Bids = append([]int(nil), bt.src.Users[ev.user].Bids...)
			} else {
				bt.shadow.Users[ev.user].Bids = nil
			}
			d.Users = append(d.Users, ev.user)
			for _, v := range ps.arena[ev.lo:ev.hi] {
				if bt.seat[v] == 0 {
					bt.touched = append(bt.touched, v)
				}
				if ev.restore {
					bt.seat[v]++
				} else {
					bt.seat[v]--
				}
			}
			n++
		}
		ps.events = ps.events[:0]
		ps.arena = ps.arena[:0]
	}
	if n == 0 {
		return bt.bound, nil
	}
	for _, v := range bt.touched {
		bt.shadow.Events[v].Capacity += bt.seat[v]
		bt.seat[v] = 0
		d.Events = append(d.Events, v)
	}
	t0 := time.Now()
	res, err := bt.planner.Update(*d)
	took := time.Since(t0)
	if err != nil {
		bt.errs++
		return bt.bound, err
	}
	bt.bound = res.LPObjective
	bt.updates++
	bt.trace = append(bt.trace, bt.bound)
	bt.lat = append(bt.lat, took)
	if len(bt.trace) > 2*boundWindow {
		bt.trace = append(bt.trace[:0], bt.trace[len(bt.trace)-boundWindow:]...)
		bt.lat = append(bt.lat[:0], bt.lat[len(bt.lat)-boundWindow:]...)
	}
	return bt.bound, nil
}

// stats assembles a copied snapshot.
func (bt *boundTracker) stats() *BoundStats {
	if bt == nil {
		return nil
	}
	return &BoundStats{
		Remaining:       bt.bound,
		Updates:         bt.updates,
		Errors:          bt.errs,
		Trace:           append([]float64(nil), bt.trace...),
		UpdateLatencies: append([]time.Duration(nil), bt.lat...),
		Solver:          bt.planner.Stats(),
	}
}

// BoundEnabled reports whether the engine tracks the live LP bound.
func (e *Engine) BoundEnabled() bool { return e.bound != nil }

// UpdateBound applies every pending serving action to the shadow problem
// and warm re-solves the bound. DispatchBatch calls it per batch; live
// drivers that serve through ArriveOn/CancelOn call it at their renewal
// points. Requires the same whole-engine exclusion as RenewLeases. The
// error reports a bound-planner failure; decisions are unaffected and the
// tracker keeps its previous bound.
func (e *Engine) UpdateBound() (float64, error) {
	if e.bound == nil {
		return 0, nil
	}
	return e.bound.apply()
}

// BoundStats returns a snapshot of the live-bound tracker, nil when
// disabled.
func (e *Engine) BoundStats() *BoundStats { return e.bound.stats() }

// NoteBidUpdate records an in-place bid replacement for an undecided user,
// so the live-bound shadow re-reads their bids at the next UpdateBound
// (ordered before any later arrival of the same user in the same shard
// queue). No-op unless Options.LiveBound. The caller must exclude the
// user's shard — the HTTP layer's bid-update path holds every shard lock.
func (e *Engine) NoteBidUpdate(u int) {
	if e.bound != nil {
		e.bound.record(e.ShardOf(u), u, nil, true)
	}
}
