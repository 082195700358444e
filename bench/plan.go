package main

import (
	"fmt"
	"math"
	"time"

	igepa "github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/par"
	"github.com/ebsn/igepa/internal/xrand"
)

// planCase is one cold solve of a block: which instance family, and the
// class the per-layer split of plan time is reported under.
type planCase struct {
	class string
	gen   func(cfg config, k int) (*model.Instance, error)
}

// instanceSeed derives the k-th instance's seed from the run's seed.
func instanceSeed(cfg config, k int) int64 { return cfg.seed*1_000_003 + int64(k) }

// The two tall families straddle lp.DevexRowThreshold (m = |U|+|V| = 3000):
// 2400+200 rows price by partial Dantzig, 2850+200 by Devex. MaxEventCap 100
// keeps event rows binding for the popular events only; at the Table I
// default of 50 the same sizes take 4–12 s per solve with a 3× seed-to-seed
// spread, which no bound could gate (see README, "Sizing").
func tallDantzig(cfg config, k int) (*model.Instance, error) {
	return igepa.Synthetic(igepa.SyntheticConfig{
		Seed: instanceSeed(cfg, k), NumUsers: cfg.pick(2400, 260), NumEvents: cfg.pick(200, 40), MaxEventCap: cfg.pick(100, 12)})
}

func tallDevex(cfg config, k int) (*model.Instance, error) {
	return igepa.Synthetic(igepa.SyntheticConfig{
		Seed: instanceSeed(cfg, k), NumUsers: cfg.pick(2850, 380), NumEvents: cfg.pick(200, 40), MaxEventCap: cfg.pick(100, 12)})
}

// meetup is the paper-scale Table II instance (2811 users, 190 events,
// ~3.6M LP columns). It stands for the paper's one crawled dataset, so it
// is the same instance for every -seed; the seed moves what a deployment
// would see vary on fixed data: rounding seeds, arrival order, Poisson gaps.
// Redrawing it per seed moves plan time by ±20% and serving throughput by
// ±16% (column count and set sizes change), more than any bound could hold.
func meetup(cfg config, _ int) (*model.Instance, error) {
	return igepa.Meetup(igepa.MeetupConfig{Seed: 1, NumUsers: cfg.pick(0, 400)})
}

func planTall(cfg config, r *report) error {
	d, x := planCase{"dantzig", tallDantzig}, planCase{"devex", tallDevex}
	return runPlan(cfg, r, []planCase{d, d, d, x}, true)
}

func planWide(cfg config, r *report) error {
	// One solve per block: at ~4 s a solve, a two-solve block would fit the
	// run once or twice depending on the machine's mood, and the sample count
	// with it. op_tail_ms therefore equals op_p50_ms on this workload.
	return runPlan(cfg, r, []planCase{{"meetup", meetup}}, false)
}

// runPlan solves block after block of cold LP-packing instances until the
// time is spent. The end-to-end run calls igepa.LPPacking; the traced run
// also re-enacts each solve stage by stage under spans and requires the
// re-enactment to reproduce LPPacking's utility bit for bit.
func runPlan(cfg config, r *report, block []planCase, certify bool) error {
	setup, err := repeatSetup(9, func() error {
		for k, c := range block {
			if _, err := c.gen(cfg, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e("setup_s", seconds(setup))

	var (
		all, genTimes       []time.Duration
		slowest, blockTimes []time.Duration // per block: its slowest solve, and the sum of its solves
		ratios              []float64
		byClass             = map[string][]time.Duration{}
		staged              stagedTotals
		refTime, stagedTime time.Duration
	)
	k := 0
	for b := newBudget(cfg.seconds); b.more(); {
		var blockMax, blockTime time.Duration
		for _, c := range block {
			g0 := time.Now()
			in, err := c.gen(cfg, k)
			if err != nil {
				return err
			}
			genTimes = append(genTimes, time.Since(g0))
			roundSeed := cfg.seed + int64(k)
			// The traced run re-enacts the solve stage by stage on a fresh
			// instance (it must build the weight cache itself), alternately
			// before and after the LPPacking call it is compared with, so that
			// neither always runs on the heap the other has grown.
			var sr *stagedResult
			restage := func() error {
				in2, err := c.gen(cfg, k)
				if err != nil {
					return err
				}
				settle()
				if sr, err = stagedPlan(r, in2, roundSeed, k, k < len(block)); err != nil {
					r.violation("staged solve %d (%s): %v", k, c.class, err)
				}
				return nil
			}
			wantStaged := cfg.trace || (certify && k == 0)
			if wantStaged && k%2 == 1 {
				if err := restage(); err != nil {
					return err
				}
			}
			settle()
			t0 := time.Now()
			res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: roundSeed})
			d := time.Since(t0)
			if err != nil {
				r.violation("solve %d (%s): %v", k, c.class, err)
				k++
				continue
			}
			r.op(1, 0)
			checkPlan(r, in, res.Arrangement, res.Utility, res.LPObjective, k)
			all = append(all, d)
			blockTime += d
			if d > blockMax {
				blockMax = d
			}
			ratios = append(ratios, res.Utility/res.LPObjective)
			if wantStaged && k%2 == 0 {
				if err := restage(); err != nil {
					return err
				}
			}
			if sr != nil {
				r.check(math.Float64bits(sr.utility) == math.Float64bits(res.Utility),
					"solve %d: staged re-enactment utility %v != LPPacking %v", k, sr.utility, res.Utility)
				if certify {
					err := lp.Verify(sr.prob, sr.sol, 1e-6)
					r.check(err == nil, "solve %d: LP optimality certificate: %v", k, err)
				}
				refTime += d
				stagedTime += sr.total
				byClass[c.class] = append(byClass[c.class], sr.total)
				staged.add(sr)
			}
			k++
		}
		slowest = append(slowest, blockMax)
		blockTimes = append(blockTimes, blockTime)
	}
	if len(all) == 0 {
		return fmt.Errorf("no solve completed")
	}

	r.e2e("op_p50_ms", millis(median(all)))
	r.e2e("op_tail_ms", millis(median(slowest)))
	r.throughput(float64(len(block)) / seconds(median(blockTimes)))
	// Over the first block only, which every run solves whatever the
	// machine's speed, so that the ratio repeats exactly for a seed.
	r.e2e("utility_ratio", medianFloat(ratios[:min(len(ratios), len(block))]))
	fmt.Printf("plans: %d solves in %d blocks, solve time %.2fs\n", len(all), len(slowest), seconds(sum(all)))

	if cfg.trace {
		n := float64(staged.solves)
		r.layer("workload.generate_s", seconds(sum(genTimes))/float64(len(genTimes)))
		for _, s := range []string{"model.weights", "conflict.build", "admissible.enumerate", "core.build_lp",
			"lp.solve", "core.sample", "core.repair", "model.utility", "model.validate"} {
			r.layer(s+"_s", r.tr.total(s)/n)
		}
		r.layer("admissible.enumerate_us_per_user", 1e6*ratio(r.tr.total("admissible.enumerate"), float64(staged.users)))
		r.layer("core.plan_s.dantzig", seconds(median(byClass["dantzig"])))
		r.layer("core.plan_s.devex", seconds(median(byClass["devex"])))
		tm := &staged.timers
		r.layer("lp.ftran_s", seconds(tm.Ftran)/n)
		r.layer("lp.btran_s", seconds(tm.Btran)/n)
		r.layer("lp.pricing_s", seconds(tm.Pricing)/n)
		r.layer("lp.update_s", seconds(tm.Update)/n)
		r.layer("lp.factor_s", seconds(tm.Factor)/n)
		// Counts are taken over the first block, which every run solves
		// whatever the machine's speed, so they repeat exactly for a seed.
		r.layer("admissible.sets", float64(staged.first.sets))
		r.layer("core.lp_columns", float64(staged.first.columns))
		r.layer("core.lp_nnz", float64(staged.first.nnz))
		r.layer("lp.pivots", float64(staged.first.timers.Pivots))
		r.layer("lp.hypersparse_ftran_share", ratio(float64(staged.first.timers.HypersparseFtran), float64(staged.first.timers.Pivots)))
		r.layer("lp.hypersparse_btran_share", ratio(float64(staged.first.timers.HypersparseBtran), float64(staged.first.timers.Pivots)))
		r.layer("bench.trace_overhead_pct", 100*(seconds(stagedTime)/seconds(refTime)-1))
		res := r.tr.residualPct("plan")
		r.layer("bench.residual_pct", res)
		if res > 5 {
			r.violation("staged plan spans leave %.1f%% of the plan unexplained (limit 5%%)", res)
		}
	}
	return nil
}

// checkPlan is the correctness gate of every plan: feasible, scored
// honestly, and never above the LP bound it is measured against.
func checkPlan(r *report, in *model.Instance, arr *model.Arrangement, utility, bound float64, k int) {
	err := model.Validate(in, arr)
	r.check(err == nil, "solve %d: arrangement infeasible: %v", k, err)
	r.check(utility <= bound*(1+1e-9)+1e-9, "solve %d: utility %v above the LP bound %v", k, utility, bound)
	u := model.Utility(in, arr)
	r.check(math.Float64bits(u) == math.Float64bits(utility), "solve %d: reported utility %v, recomputed %v", k, utility, u)
}

type stagedCounts struct {
	sets, columns, nnz int
	timers             lp.PhaseTimers
}

type stagedResult struct {
	stagedCounts
	users   int
	utility float64
	total   time.Duration
	prob    *lp.Problem
	sol     *lp.Solution
	first   bool
}

// stagedTotals accumulates the re-enactments of a run; first covers the
// first block only.
type stagedTotals struct {
	solves, users int
	timers        lp.PhaseTimers
	first         stagedCounts
}

func (t *stagedTotals) add(s *stagedResult) {
	t.solves++
	t.users += s.users
	addTimers(&t.timers, &s.timers)
	if s.first {
		t.first.sets += s.sets
		t.first.columns += s.columns
		t.first.nnz += s.nnz
		addTimers(&t.first.timers, &s.timers)
	}
}

func addTimers(dst, src *lp.PhaseTimers) {
	dst.Ftran += src.Ftran
	dst.Btran += src.Btran
	dst.Pricing += src.Pricing
	dst.Update += src.Update
	dst.Factor += src.Factor
	dst.Pivots += src.Pivots
	dst.RepairPivots += src.RepairPivots
	dst.HypersparseFtran += src.HypersparseFtran
	dst.HypersparseBtran += src.HypersparseBtran
}

// stagedPlan re-enacts core.LPPacking through the public function of each
// layer it crosses, one span per stage under a "plan" root, with the LP's
// own phase timers attached to the lp.solve span.
func stagedPlan(r *report, in *model.Instance, seed int64, op int, first bool) (*stagedResult, error) {
	tr := r.tr
	stage := func(name string, root int, fn func()) {
		id := tr.begin(name, root, op)
		fn()
		tr.end(id)
	}
	out := &stagedResult{users: in.NumUsers(), first: first}
	t0 := time.Now()
	root := tr.begin("plan", -1, op)

	var wc *model.WeightCache
	stage("model.weights", root, func() { wc = in.Weights() })
	var conf *conflict.Matrix
	stage("conflict.build", root, func() { conf = conflict.FromFunc(in.NumEvents(), in.Conflicts) })
	sets := make([][]admissible.Set, in.NumUsers())
	stage("admissible.enumerate", root, func() {
		par.For(0, in.NumUsers(), 16, func(u int) {
			usr := &in.Users[u]
			w := func(v int) float64 { return wc.Of(u, v) }
			sets[u] = admissible.Enumerate(usr.Bids, usr.Capacity, conf, w, admissible.Config{}).Sets
		})
	})
	var owner [][2]int
	stage("core.build_lp", root, func() { out.prob, owner = core.BuildBenchmarkLP(in, sets) })
	var err error
	solve := tr.begin("lp.solve", root, op)
	out.sol, err = lp.SolveConfig(out.prob, lp.Revised{Timers: &out.timers})
	tr.end(solve)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	tr.attr(solve, "ftran_s", seconds(out.timers.Ftran))
	tr.attr(solve, "btran_s", seconds(out.timers.Btran))
	tr.attr(solve, "pricing_s", seconds(out.timers.Pricing))
	tr.attr(solve, "update_s", seconds(out.timers.Update))
	tr.attr(solve, "factor_s", seconds(out.timers.Factor))
	tr.attr(solve, "pivots", float64(out.timers.Pivots))
	var chosen []int
	stage("core.sample", root, func() {
		chosen = core.SampleSets(in.NumUsers(), sets, owner, out.sol.X, 1, seed, 0)
	})
	var arr *model.Arrangement
	stage("core.repair", root, func() {
		arr, _ = core.Repair(in, sets, chosen, core.RepairByIndex, xrand.New(seed))
		arr.Normalize()
	})
	stage("model.utility", root, func() { out.utility = model.Utility(in, arr) })
	var verr error
	stage("model.validate", root, func() { verr = model.Validate(in, arr) })
	tr.end(root)
	out.total = time.Since(t0)
	if verr != nil {
		return nil, verr
	}

	for _, us := range sets {
		out.sets += len(us)
	}
	out.columns, out.nnz = out.prob.NumCols(), out.prob.NNZ()
	return out, nil
}
