package server

// The server's one counter set: an internal/obs registry holding every
// counter and latency histogram the server keeps. /metrics exposes it as
// Prometheus text exposition; /statsz is a JSON view over the same
// handles (its p50/p99 are Histogram.Quantile reads), so the two surfaces
// cannot disagree. The registry is always built — walErrors and
// leaseErrors gate fail-stop and /healthz — and Config.DisableMetrics
// only leaves /metrics unmounted.
//
// Three recording disciplines keep instrumentation from perturbing
// serving:
//
//   - Hot-path samples (decision latencies, grant counts) are recorded
//     inline by the batching loops — atomic increments only, no locks, no
//     allocations (pinned by TestArrivalPathAllocs).
//   - Engine-owned counters (lease renewals, moved seats, LP solver and
//     phase-timer totals) are mirrored into the registry only at points
//     that already hold the necessary exclusion (renewal rounds, replay
//     batches, drain). A /metrics scrape therefore never takes a shard
//     lock — it reads the last mirrored values.
//   - Cheap shared-state reads (queue depth, WAL writer stats, follower
//     lag) are refreshed at scrape time; none of their mutexes are held
//     across serving work.
//
// Every metric here obeys the DESIGN.md §12 cardinality rule: label values
// are bounded by configuration (shard index, HTTP code, LP phase), never
// by workload (user, event).

import (
	"fmt"
	"math"
	"time"

	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/shard"
)

// serverObs bundles the registry and the handles the serving loops touch.
type serverObs struct {
	reg *obs.Registry

	arrivals, decided, granted, cancels *obs.Counter
	errs400, errs409, errs421           *obs.Counter
	errs429, errs503                    *obs.Counter
	leaseErrors, walErrors              *obs.Counter
	slowArrivals                        *obs.Counter

	queueWait, decide, total *obs.Histogram

	walCommit, walFsync  *obs.Histogram
	walAppends, walSyncs *obs.Counter
	walBytes             *obs.Counter

	batches, renewals, movedSeats, epochs *obs.Counter
	readyFlips                            *obs.Counter
	replicaRecords                        *obs.Counter

	bound        solverObs
	boundRemain  *obs.Gauge
	boundUpdates *obs.Counter
	boundErrors  *obs.Counter
}

// solverObs is one persistent LP solver's mirrored counter set.
type solverObs struct {
	cold, warm, fast, warmPivots *obs.Counter

	// warm-abandonment breakdown: igepa_lp_fallbacks_total{reason=...}.
	// reason="singular" | "repair_stall" | "bound_infeasible" | "error";
	// the legacy infeasible aggregate (stall+bound) is not re-exported —
	// it is derivable by summing the two reasons.
	fbSingular, fbStall, fbBound, fbError *obs.Counter

	refactorizations              *obs.Counter
	etaLen                        *obs.Gauge
	hyperFtran, hyperBtran        *obs.Counter
	budgetExhausted               *obs.Counter
	warmCutovers                  *obs.Counter
	ftran, btran, pricing, update *obs.Counter
	sync, factor                  *obs.Counter
}

func newSolverObs(reg *obs.Registry, name string) solverObs {
	l := obs.L("solver", name)
	fb := func(reason string) *obs.Counter {
		return reg.Counter("igepa_lp_fallbacks_total",
			"Warm re-solves abandoned for a cold solve, by reason.", l, obs.L("reason", reason))
	}
	return solverObs{
		cold:             reg.Counter("igepa_lp_cold_solves_total", "Cold (all-slack) LP solves.", l),
		warm:             reg.Counter("igepa_lp_warm_solves_total", "Warm-started LP re-solves.", l),
		fast:             reg.Counter("igepa_lp_fast_finishes_total", "Warm re-solves that skipped the primal pricing loop.", l),
		warmPivots:       reg.Counter("igepa_lp_warm_pivots_total", "Simplex pivots spent in warm re-solves.", l),
		fbSingular:       fb("singular"),
		fbStall:          fb("repair_stall"),
		fbBound:          fb("bound_infeasible"),
		fbError:          fb("error"),
		refactorizations: reg.Counter("igepa_lp_refactorizations_total", "LU rebuilds on the solver state.", l),
		etaLen:           reg.Gauge("igepa_lp_eta_chain_length", "Product-form updates since the last refactorization.", l),
		hyperFtran:       reg.Counter("igepa_lp_hypersparse_solves_total", "Triangular solves served by the symbolic-reach kernels.", l, obs.L("kernel", "ftran")),
		hyperBtran:       reg.Counter("igepa_lp_hypersparse_solves_total", "Triangular solves served by the symbolic-reach kernels.", l, obs.L("kernel", "btran")),
		budgetExhausted:  reg.Counter("igepa_lp_repair_budget_exhausted_total", "Dual repairs that ran out of their pivot budget.", l),
		warmCutovers:     reg.Counter("igepa_lp_partial_warm_cutovers_total", "Keep-the-basis refactorize-and-retry recoveries after a repair stall.", l),
		ftran:            reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "ftran")),
		btran:            reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "btran")),
		pricing:          reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "pricing")),
		sync:             reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "sync")),
		update:           reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "update")),
		factor:           reg.Counter("igepa_lp_phase_ns_total", "Cumulative LP phase time in nanoseconds.", l, obs.L("phase", "factor")),
	}
}

// mirror stores the cumulative solver counters (monotonic Store — safe to
// replay the same snapshot twice).
func (so *solverObs) mirror(st lp.SolverStats, t lp.PhaseTimers) {
	so.cold.Store(int64(st.ColdSolves))
	so.warm.Store(int64(st.WarmSolves))
	so.fast.Store(int64(st.FastFinishes))
	so.warmPivots.Store(int64(st.WarmPivots))
	so.fbSingular.Store(int64(st.FallbackSingular))
	so.fbStall.Store(int64(st.FallbackRepairStall))
	so.fbBound.Store(int64(st.FallbackBoundInfeasible))
	so.fbError.Store(int64(st.FallbackError))
	so.refactorizations.Store(st.Refactorizations)
	so.etaLen.Set(float64(st.EtaLen))
	so.hyperFtran.Store(t.HypersparseFtran)
	so.hyperBtran.Store(t.HypersparseBtran)
	so.budgetExhausted.Store(t.BudgetExhausted)
	so.warmCutovers.Store(t.PartialWarmCutovers)
	so.ftran.Store(t.Ftran.Nanoseconds())
	so.btran.Store(t.Btran.Nanoseconds())
	so.pricing.Store(t.Pricing.Nanoseconds())
	so.sync.Store(t.Sync.Nanoseconds())
	so.update.Store(t.Update.Nanoseconds())
	so.factor.Store(t.Factor.Nanoseconds())
}

// newServerObs registers the server's metric families and scrape-time
// gauges. Called from New after the queues exist.
func newServerObs(srv *Server) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:          reg,
		arrivals:     reg.Counter("igepa_arrivals_total", "Accepted bid submissions (queued)."),
		decided:      reg.Counter("igepa_decided_total", "Decisions delivered."),
		granted:      reg.Counter("igepa_granted_total", "Decisions that granted at least one event."),
		cancels:      reg.Counter("igepa_cancels_total", "Assignment cancellations."),
		errs400:      reg.Counter("igepa_http_errors_total", "HTTP error responses by status code.", obs.L("code", "400")),
		errs409:      reg.Counter("igepa_http_errors_total", "HTTP error responses by status code.", obs.L("code", "409")),
		errs421:      reg.Counter("igepa_http_errors_total", "HTTP error responses by status code.", obs.L("code", "421")),
		errs429:      reg.Counter("igepa_http_errors_total", "HTTP error responses by status code.", obs.L("code", "429")),
		errs503:      reg.Counter("igepa_http_errors_total", "HTTP error responses by status code.", obs.L("code", "503")),
		leaseErrors:  reg.Counter("igepa_lease_errors_total", "Lease invariant violations."),
		walErrors:    reg.Counter("igepa_wal_errors_total", "WAL append/fsync failures (durability lost)."),
		slowArrivals: reg.Counter("igepa_slow_arrivals_total", "Arrivals that crossed the -slowlog threshold."),
		queueWait:    reg.Histogram("igepa_queue_wait_seconds", "Enqueue to processing start.", obs.LatencyBuckets()),
		decide:       reg.Histogram("igepa_decision_seconds", "Planner time per arrival.", obs.LatencyBuckets()),
		total:        reg.Histogram("igepa_total_seconds", "Enqueue to decision delivered.", obs.LatencyBuckets()),
		walCommit:    reg.Histogram("igepa_wal_commit_seconds", "WAL append+commit per micro-batch, amortized per decision.", obs.LatencyBuckets()),
		walFsync:     reg.Histogram("igepa_wal_fsync_seconds", "Individual WAL fsync calls.", obs.LatencyBuckets()),
		walAppends:   reg.Counter("igepa_wal_appends_total", "Records appended to the WAL."),
		walSyncs:     reg.Counter("igepa_wal_syncs_total", "WAL fsync calls issued."),
		walBytes:     reg.Counter("igepa_wal_bytes_total", "Frame bytes appended to the WAL."),
		batches:      reg.Counter("igepa_batches_total", "Micro-batches processed (live) or global batches dispatched (replay)."),
		renewals:     reg.Counter("igepa_lease_renewals_total", "Lease renewal rounds."),
		movedSeats:   reg.Counter("igepa_moved_seats_total", "Seats that changed shard owner across renewals."),
		epochs:       reg.Counter("igepa_epochs_total", "Engine batch epochs (replay mode)."),
		readyFlips:   reg.Counter("igepa_readiness_flips_total", "Follower readiness transitions (either direction)."),
		replicaRecords: reg.Counter("igepa_replica_records_total",
			"WAL records applied by the follower tailer."),
		bound:        newSolverObs(reg, "bound"),
		boundRemain:  reg.Gauge("igepa_lp_bound_remaining", "Latest remaining-opportunity LP bound."),
		boundUpdates: reg.Counter("igepa_lp_bound_updates_total", "Live-bound planner re-solves."),
		boundErrors:  reg.Counter("igepa_lp_bound_errors_total", "Live-bound planner failures."),
	}

	// Scrape-time gauges over shared state whose mutexes are never held
	// across serving work: per-queue depth, the configured limit, WAL
	// segment size, follower lag/readiness.
	limit := srv.qlimit
	reg.GaugeFunc("igepa_queue_limit", "Configured per-queue depth bound.", func() float64 { return float64(limit) })
	for qi, q := range srv.queues {
		q := q
		reg.GaugeFunc("igepa_queue_depth", "Requests waiting in the shard queue.",
			func() float64 { return float64(q.Depth()) }, obs.L("shard", fmt.Sprint(qi)))
	}
	reg.GaugeFunc("igepa_queue_occupancy", "Deepest queue as a fraction of the depth bound.", func() float64 {
		max := 0
		for _, q := range srv.queues {
			if d := q.Depth(); d > max {
				max = d
			}
		}
		return float64(max) / float64(limit)
	})
	reg.GaugeFunc("igepa_wal_size_bytes", "Logical WAL end offset.", func() float64 {
		return float64(srv.walOffset())
	})
	reg.GaugeFunc("igepa_replication_lag_bytes", "Unapplied suffix of the leader's log (follower only).", func() float64 {
		if srv.fol == nil {
			return 0
		}
		return float64(srv.fol.stats().LagBytes)
	})
	reg.GaugeFunc("igepa_replication_ready", "1 while the follower is within the lag bound (follower only).", func() float64 {
		if srv.fol == nil || !srv.follow.Load() {
			return 0
		}
		if srv.fol.stats().Ready {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("igepa_up_seconds", "Process uptime.", func() float64 {
		return time.Since(srv.started).Seconds()
	})
	return o
}

// refresh mirrors the scrape-safe counters kept by other components: WAL
// writer stats, follower records and the slow-arrival count.
func (o *serverObs) refresh(srv *Server) {
	o.slowArrivals.Store(srv.slow.Count())
	if w := srv.walWriter(); w != nil {
		st := w.Stats()
		o.walAppends.Store(st.Appends)
		o.walSyncs.Store(st.Syncs)
		o.walBytes.Store(st.Bytes)
	}
	if srv.fol != nil {
		o.replicaRecords.Store(srv.fol.stats().Records)
	}
}

// observeDecision is the hot-path sample: three histogram observations,
// allocation-free.
func (o *serverObs) observeDecision(wait, decide, total time.Duration) {
	o.queueWait.ObserveDuration(wait)
	o.decide.ObserveDuration(decide)
	o.total.ObserveDuration(total)
}

// percentiles is a histogram's (p50, p99) in /statsz's currency.
func percentiles(h *obs.Histogram) Percentiles {
	micros := func(s float64) int64 { return int64(math.Round(s * 1e6)) }
	return Percentiles{P50Micros: micros(h.Quantile(0.50)), P99Micros: micros(h.Quantile(0.99))}
}

// mirrorEngine stores the engine-owned cumulative counters. The caller
// must hold the same exclusion RenewLeases requires; the serving layer
// calls it from its renewal points (tryRenew, the replay dispatcher, the
// cluster batch and lease handlers, drain), never from a scrape.
func (o *serverObs) mirrorEngine(eng *shard.Engine, replay bool) {
	o.renewals.Store(int64(eng.Renewals()))
	o.movedSeats.Store(int64(eng.MovedSeats()))
	if replay {
		o.epochs.Store(int64(eng.Epochs()))
	}
	if eng.BoundEnabled() {
		st := eng.LPStats()
		o.bound.mirror(st.Bound, st.BoundTimers)
		o.boundRemain.Set(st.BoundRemaining)
		o.boundUpdates.Store(int64(st.BoundUpdates))
		o.boundErrors.Store(int64(st.BoundErrors))
	}
}
