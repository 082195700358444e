package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	igepa "github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
)

// The delta stream repeats a block of 51 updates in the issue's 40:1:10 mix:
// 40 single-user bid toggles, 10 capacity edits of 5 events (±1 seat) and one
// batch re-bidding 5% of the users. One update in 51 being a batch puts p50
// in the single-user class; the batch class is the tail.
const (
	churnBlock     = 51
	churnCapEvents = 5
	// churnCountBlocks is the prefix of the stream over which exactly
	// repeating counts are taken: every run gets at least this far.
	churnCountBlocks = 5
)

type churnKind int

const (
	churnSingle churnKind = iota
	churnCaps
	churnBatch
)

func churnKindOf(j int) churnKind {
	switch {
	case j%churnBlock == churnBlock-1:
		return churnBatch
	case j%5 == 4:
		return churnCaps
	default:
		return churnSingle
	}
}

// churn applies the seeded mutations to the instance in place. Every
// mutation is a toggle between the generated value and one edit away from
// it, so the stream is stationary however long it runs.
type churn struct {
	in       *model.Instance
	rng      *rand.Rand
	origBids [][]int
	dropped  []bool
	origCap  []int
	lowered  []bool
}

func newChurn(in *model.Instance, seed int64) *churn {
	c := &churn{in: in, rng: rand.New(rand.NewSource(seed)),
		dropped: make([]bool, in.NumUsers()), lowered: make([]bool, in.NumEvents())}
	for u := range in.Users {
		c.origBids = append(c.origBids, in.Users[u].Bids)
	}
	for v := range in.Events {
		c.origCap = append(c.origCap, in.Events[v].Capacity)
	}
	return c
}

func (c *churn) toggleUser(u int) {
	orig := c.origBids[u]
	if c.dropped[u] {
		c.in.Users[u].Bids = orig
	} else {
		c.in.Users[u].Bids = orig[: len(orig)-1 : len(orig)-1]
	}
	c.dropped[u] = !c.dropped[u]
}

func (c *churn) toggleEvent(v int) {
	if c.lowered[v] {
		c.in.Events[v].Capacity = c.origCap[v]
	} else if c.origCap[v] > 1 {
		c.in.Events[v].Capacity = c.origCap[v] - 1
	} else {
		c.in.Events[v].Capacity = c.origCap[v] + 1
	}
	c.lowered[v] = !c.lowered[v]
}

// next mutates the instance for update j and returns the delta naming it.
func (c *churn) next(j int) core.Delta {
	nu, nv := c.in.NumUsers(), c.in.NumEvents()
	switch churnKindOf(j) {
	case churnBatch:
		users := c.rng.Perm(nu)[:nu/20]
		for _, u := range users {
			c.toggleUser(u)
		}
		return core.Delta{Users: users}
	case churnCaps:
		events := c.rng.Perm(nv)[:churnCapEvents]
		for _, v := range events {
			c.toggleEvent(v)
		}
		return core.Delta{Events: events}
	default:
		u := c.rng.Intn(nu)
		c.toggleUser(u)
		return core.Delta{Users: []int{u}}
	}
}

// replanChurn keeps one Planner alive over a seeded stream of bid toggles,
// batch re-bids and capacity edits: the warm lp.Solver.Resolve path, core's
// incremental rounding and model.Invalidate.
func replanChurn(cfg config, r *report) error {
	if !cfg.trace {
		return churnRun(cfg, r, 3)
	}
	refOps, err := r.reference(0.3, 1, churnRun)
	if err != nil {
		return err
	}
	cfg.seconds *= 0.7
	if err := churnRun(cfg, r, 3); err != nil {
		return err
	}
	r.layer("bench.trace_overhead_pct", 100*(ratio(refOps, r.opsPerS)-1))
	return nil
}

// churnSites is how many planners, each on its own seeded instance, share
// the stream block by block. How hard an instance's LP is to re-solve varies
// with the seed (±15% in updates/s on one instance); pooling four instances
// halves that, where a longer stream on one instance would not touch it.
const churnSites = 4

// churnSite is one planner with its instance, its delta stream and, on the
// traced run, its LP timers and the shadow clone Invalidate is timed on.
type churnSite struct {
	in     *model.Instance
	p      *core.Planner
	c      *churn
	tm     lp.PhaseTimers
	shadow *model.Instance
	last   *core.Result
	n      int // updates applied so far
}

func churnRun(cfg config, r *report, setupReps int) error {
	sites := make([]*churnSite, churnSites)
	closeAll := func() {
		for _, s := range sites {
			if s != nil {
				s.p.Close()
			}
		}
	}
	var genTimes, newTimes []time.Duration
	setup, err := repeatSetup(setupReps, func() error {
		closeAll()
		for i := range sites {
			sites[i] = nil
			s := &churnSite{}
			g0 := time.Now()
			var err error
			s.in, err = igepa.Synthetic(igepa.SyntheticConfig{Seed: instanceSeed(cfg, i),
				NumUsers: cfg.pick(2000, 300), NumEvents: cfg.pick(200, 40), MaxEventCap: cfg.pick(100, 50)})
			if err != nil {
				return err
			}
			genTimes = append(genTimes, time.Since(g0))
			opt := igepa.LPPackingOptions{Seed: cfg.seed}
			if cfg.trace {
				opt.LP.Timers = &s.tm
			}
			n0 := time.Now()
			if s.p, err = igepa.NewPlanner(s.in, opt); err != nil {
				return err
			}
			newTimes = append(newTimes, time.Since(n0))
			sites[i] = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer closeAll()
	r.e2e("setup_s", seconds(setup))

	for i, s := range sites {
		s.c = newChurn(s.in, cfg.seed+int64(i))
		if cfg.trace {
			// The traced run mirrors every bid mutation onto a clone with
			// built caches and times Instance.Invalidate there, directly.
			s.shadow = s.in.Clone()
			s.shadow.Weights()
			s.shadow.Bidders(0)
		}
	}
	lpTotals := func() (st lp.SolverStats, tm lp.PhaseTimers) {
		for _, s := range sites {
			ps := s.p.Stats()
			st.WarmSolves += ps.WarmSolves
			st.ColdSolves += ps.ColdSolves
			st.FastFinishes += ps.FastFinishes
			st.WarmPivots += ps.WarmPivots
			st.FallbackSingular += ps.FallbackSingular
			st.FallbackInfeasible += ps.FallbackInfeasible
			st.FallbackError += ps.FallbackError
			st.Refactorizations += ps.Refactorizations
			addTimers(&tm, &s.tm)
		}
		return st, tm
	}

	var (
		all, invalidate []time.Duration
		blockTimes      []time.Duration // Update time of each block of churnBlock updates
		prefixRatios    []float64       // each planner's Utility ÷ LP bound at the end of the counted prefix
		byKind          [3][]time.Duration
		self            time.Duration
		counts          lp.SolverStats
		countsTM        lp.PhaseTimers
	)
	root := r.tr.begin("replan.stream", -1, 0)
	blocks := 0
	for b := newBudget(cfg.seconds); b.more(); blocks++ {
		s := sites[blocks%churnSites]
		var blockTime time.Duration
		for i := 0; i < churnBlock; i++ {
			d := s.c.next(s.n)
			op := len(all)
			lp0 := s.tm.Total()
			id := r.tr.begin("core.update", root, op)
			t0 := time.Now()
			res, err := s.p.Update(d)
			dur := time.Since(t0)
			r.tr.end(id)
			if err != nil {
				r.violation("update %d: %v", op, err)
				return nil
			}
			r.op(1, 0)
			s.last = res
			all = append(all, dur)
			blockTime += dur
			byKind[churnKindOf(s.n)] = append(byKind[churnKindOf(s.n)], dur)
			if cfg.trace {
				lpDur := s.tm.Total() - lp0
				self += dur - lpDur
				if lpDur > 0 {
					r.tr.child("lp.resolve", id, op, lpDur)
				}
				if len(d.Users) > 0 {
					for _, u := range d.Users {
						s.shadow.Users[u].Bids = s.in.Users[u].Bids
					}
					iv := r.tr.begin("model.invalidate", root, op)
					s.shadow.Invalidate(d.Users...)
					invalidate = append(invalidate, r.tr.end(iv))
				}
			}
			s.n++
		}
		blockTimes = append(blockTimes, blockTime)
		if blocks+1 == churnCountBlocks*churnSites {
			counts, countsTM = lpTotals()
			for _, s := range sites {
				prefixRatios = append(prefixRatios, s.last.Utility/s.last.LPObjective)
			}
		}
	}
	r.tr.end(root)

	// Correctness: each planner's incrementally maintained result must equal
	// the from-scratch re-round on the same planner, bit for bit.
	var ratios []float64
	for i, s := range sites {
		if s.last == nil {
			continue // a run too short to reach this planner
		}
		oracle, err := s.p.Round()
		if err != nil {
			r.violation("planner %d: oracle re-round: %v", i, err)
			continue
		}
		r.check(math.Float64bits(oracle.Utility) == math.Float64bits(s.last.Utility),
			"planner %d: last Update utility %v != Round() oracle %v", i, s.last.Utility, oracle.Utility)
		r.check(oracle.Arrangement.Equal(s.last.Arrangement), "planner %d: last Update arrangement differs from the Round() oracle", i)
		checkPlan(r, s.in, s.last.Arrangement, s.last.Utility, s.last.LPObjective, i)
		ratios = append(ratios, s.last.Utility/s.last.LPObjective)
	}

	// Every block has the same mix, so the median block is the stream's pace
	// with the machine's stalls left out. One update in 51 is a batch, so the
	// batch class is the stream's top 2% and its median sits at p99.
	r.e2e("op_p50_ms", millis(median(all)))
	r.e2e("op_tail_ms", millis(median(byKind[churnBatch])))
	r.throughput(churnBlock / seconds(median(blockTimes)))
	if prefixRatios != nil {
		ratios = prefixRatios // at a fixed point of the stream, so it repeats exactly for a seed
	}
	r.e2e("utility_ratio", medianFloat(ratios))
	fmt.Printf("updates: %d (single %d, caps %d, batch %d) on %d planners in %.2fs of Update time\n",
		len(all), len(byKind[churnSingle]), len(byKind[churnCaps]), len(byKind[churnBatch]), churnSites, seconds(sum(all)))

	if cfg.trace {
		n := float64(len(all))
		st, tm := lpTotals()
		resolves := float64(st.WarmSolves + st.ColdSolves - churnSites) // minus each NewPlanner's cold solve
		pivots := float64(countsTM.Pivots + countsTM.RepairPivots)
		r.layer("workload.generate_s", seconds(median(genTimes)))
		r.layer("core.new_planner_s", seconds(median(newTimes)))
		r.layer("core.update_single_ms_p50", millis(median(byKind[churnSingle])))
		r.layer("core.update_caps_ms_p50", millis(median(byKind[churnCaps])))
		r.layer("core.update_batch_ms_p50", millis(median(byKind[churnBatch])))
		r.layer("core.update_self_ms", millis(self)/n)
		r.layer("model.invalidate_us", ratio(micros(sum(invalidate)), float64(len(invalidate))))
		r.layer("lp.resolve_busy_us", micros(tm.Total())/n)
		r.layer("lp.ftran_s", seconds(tm.Ftran)/n)
		r.layer("lp.btran_s", seconds(tm.Btran)/n)
		r.layer("lp.pricing_s", seconds(tm.Pricing)/n)
		r.layer("lp.update_s", seconds(tm.Update)/n)
		r.layer("lp.factor_s", seconds(tm.Factor)/n)
		r.layer("lp.warm_pivots_per_resolve", ratio(float64(st.WarmPivots), float64(st.WarmSolves)))
		r.layer("lp.repair_pivots_per_resolve", ratio(float64(tm.RepairPivots), float64(st.WarmSolves)))
		r.layer("lp.fast_finish_ratio", ratio(float64(st.FastFinishes), float64(st.WarmSolves)))
		r.layer("lp.fallback_ratio", ratio(float64(st.FallbackSingular+st.FallbackInfeasible+st.FallbackError), resolves))
		// Counts over the first churnCountBlocks blocks of every planner,
		// the cold solves included: a prefix every run reaches.
		r.layer("lp.pivots", pivots)
		r.layer("lp.refactorizations", float64(counts.Refactorizations))
		r.layer("lp.hypersparse_ftran_share", ratio(float64(countsTM.HypersparseFtran), pivots))
		r.layer("lp.hypersparse_btran_share", ratio(float64(countsTM.HypersparseBtran), pivots))
		res := r.tr.residualPct("replan.stream")
		r.layer("bench.residual_pct", res)
		if res > 5 {
			r.violation("the update stream spends %.1f%% outside Update and Invalidate spans (limit 5%%)", res)
		}
	}
	return nil
}
