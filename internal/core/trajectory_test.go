package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// solutionHash is an FNV-1a hash over the bits of X's live slots then Y,
// with signed zeros collapsed. live reports whether a slot is live; nil
// means every slot is, and a solution without tombstones hashes the same
// either way.
func solutionHash(sol *lp.Solution, live func(j int) bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v+0))
		h.Write(buf[:])
	}
	for j, v := range sol.X {
		if live == nil || live(j) {
			put(v)
		}
	}
	for _, v := range sol.Y {
		put(v)
	}
	return h.Sum64()
}

// TestPlanTallDevexTrajectoryPinned pins, absolutely, the cold default solve
// of one plan_tall-scale Devex-class LP: the benchmark's 2850-user, 200-event
// instance (m = 3050, past lp.DevexRowThreshold, so auto pricing is Devex).
// The pivot count, the objective's bits and an FNV-1a hash over the bits of
// X then Y (signed zeros collapsed) must not move; the smaller pins in
// internal/lp cover the warm paths. It also checks the row order the
// solver's pivot-row scatter relies on for bit-identity: every column of the
// built LP lists its rows in ascending order. amd64 only.
func TestPlanTallDevexTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_006, NumUsers: 2850, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	prob, _ := BuildBenchmarkLP(in, sets)
	for j := 0; j < prob.NumCols(); j++ {
		rows := prob.Col(j)
		for k := 1; k < len(rows); k++ {
			if rows[k] <= rows[k-1] {
				t.Fatalf("column %d lists rows %v, not ascending", j, rows)
			}
		}
	}
	sol, err := lp.SolveConfig(prob, lp.Revised{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantIters = 3887
		wantObj   = 0x40aa2969d0730611
		wantHash  = 0x6fc191d868e123d0
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol, nil); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
	}
}

// TestPlanTallDantzigTrajectoryPinned pins, absolutely, the cold default
// solve of plan_tall's Dantzig-class LP: the benchmark's 2400-user, 200-event
// instance (m = 2600, below lp.DevexRowThreshold, so auto pricing is partial
// Dantzig). The pivot count, the objective's bits and the X/Y hash must not
// move. amd64 only.
func TestPlanTallDantzigTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in := tallDantzigInstance(t)
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	prob, _ := BuildBenchmarkLP(in, sets)
	sol, err := lp.SolveConfig(prob, lp.Revised{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantIters = 3186
		wantObj   = 0x40a614542690047b
		wantHash  = 0x831bc55a8fe0d9f7
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol, nil); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
	}
}

// TestBulkAddColsResolvePinned pins, absolutely, one warm re-solve after a
// bulk column delta, the shape of a column-generation master's step: the
// plan_tall Dantzig-class LP is solved cold without the columns of 5% of its
// users (drawn by xrand.New(1)), and one Solver.Resolve appends them all.
// The warm pivots (dual repair plus the primal finish), the objective's bits
// and the X/Y hash must not move, and the resolve must stay warm. amd64
// only.
func TestBulkAddColsResolvePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in := tallDantzigInstance(t)
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	full, owner := BuildBenchmarkLP(in, sets)
	nu := in.NumUsers()
	held := make([]bool, nu)
	for _, u := range xrand.New(1).Perm(nu)[:nu/20] {
		held[u] = true
	}
	base := &lp.Problem{NumRows: full.NumRows, B: append([]float64(nil), full.B...)}
	var d lp.ProblemDelta
	for j := 0; j < full.NumCols(); j++ {
		rows := make([]int, 0, len(full.Col(j)))
		for _, r := range full.Col(j) {
			rows = append(rows, int(r))
		}
		if held[owner[j][0]] {
			d.AddCols = append(d.AddCols, lp.Column{Rows: rows})
			d.AddC = append(d.AddC, full.C[j])
		} else {
			base.AddColumn(full.C[j], rows)
		}
	}
	s := lp.NewSolver(lp.Revised{})
	defer s.Release()
	if _, err := s.Solve(base); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Verify(s.Problem(), sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	const (
		wantWarmPivots = 320
		wantObj        = 0x40a614542690047d
		wantHash       = 0x8d00cea14bc24f88
	)
	st := s.Stats()
	if st.WarmSolves != 1 || st.ColdSolves != 1 {
		t.Fatalf("%d warm and %d cold solves, want one of each", st.WarmSolves, st.ColdSolves)
	}
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol, nil); st.WarmPivots != wantWarmPivots || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got warm pivots=%d obj=%#x hash=%#x, want warm pivots=%d obj=%#x hash=%#x",
			st.WarmPivots, obj, h, wantWarmPivots, uint64(wantObj), uint64(wantHash))
	}
}

// meetupPin is a small Meetup instance, 400 users and the default 190
// events (m = 590), with its admissible sets.
func meetupPin(t *testing.T) (*model.Instance, [][]admissible.Set) {
	t.Helper()
	return meetupSets(t, 400)
}

// meetupSets is the seed-1 Meetup instance with users users and the default
// 190 events, with its admissible sets.
func meetupSets(t *testing.T, users int) (*model.Instance, [][]admissible.Set) {
	t.Helper()
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: users})
	if err != nil {
		t.Fatal(err)
	}
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	return in, sets
}

// TestMeetupTrajectoryPinned pins, absolutely, the default solve of
// Meetup-shaped benchmark LPs. Both rows sit below lp.DevexRowThreshold, so
// lp.SolveConfig takes the revised simplex with partial Dantzig pricing, and
// this fixes the pricing scan, the FTRAN of BuildBenchmarkLP's columns and
// the certificate on the paper's own workload family: the pivot count, the
// objective's bits and the X/Y hash must not move. The 1000-user row
// (1,459,460 columns, m = 1190) is wide enough that the scan's cursor wraps
// many full passes. The variables the scan reads and those its block bounds
// let it skip (lp.PhaseTimers.PricedVars, SkippedVars) are pinned too: their
// sum is what the plain scan reads. amd64 only.
func TestMeetupTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		users       int
		wantCols    int
		wantIters   int
		wantObj     uint64
		wantHash    uint64
		wantPriced  int64
		wantSkipped int64
	}{
		{400, 0, 585, 0x408c3a97b9fbaabb, 0x4a9d77c3850593e0, 1_035_009, 11_006_464},
		{1000, 1_459_460, 1859, 0x40a0ac2f3c2ddfdf, 0xa29153eeccfd6e85, 3_368_710, 51_227_904},
	} {
		in, sets := meetupSets(t, tc.users)
		prob, _ := BuildBenchmarkLP(in, sets)
		if tc.wantCols != 0 && prob.NumCols() != tc.wantCols {
			t.Fatalf("Meetup-%d: %d columns, want %d", tc.users, prob.NumCols(), tc.wantCols)
		}
		var tm lp.PhaseTimers
		sol, err := lp.SolveConfig(prob, lp.Revised{Timers: &tm})
		if err != nil {
			t.Fatal(err)
		}
		if err := lp.Verify(prob, sol, 1e-6); err != nil {
			t.Fatal(err)
		}
		if obj, h := math.Float64bits(sol.Objective), solutionHash(sol, nil); sol.Iterations != tc.wantIters || obj != tc.wantObj || h != tc.wantHash {
			t.Errorf("Meetup-%d trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
				tc.users, sol.Iterations, obj, h, tc.wantIters, tc.wantObj, tc.wantHash)
		}
		if tm.PricedVars != tc.wantPriced || tm.SkippedVars != tc.wantSkipped {
			t.Errorf("Meetup-%d pricing scan: read %d and skipped %d variables, want %d and %d",
				tc.users, tm.PricedVars, tm.SkippedVars, tc.wantPriced, tc.wantSkipped)
		}
	}
}

// TestChurnTrajectoryPinned pins, absolutely, a stream of warm re-solves on
// the Dantzig-class LP of a replan_churn-scale instance: 2000 users and 200
// events, so m = 2200 sits below lp.DevexRowThreshold. A seeded stream of 102
// updates in replan_churn's mix drives Planner.Update through the warm
// Solver.Resolve path: dual repair, fast finishes and the warm Dantzig pivot
// loop. Each block of 51 updates holds 40 single-user bid toggles, 10
// capacity edits of 5 events and one batch toggling 5% of the users; every
// toggle flips between the generated value and one edit away from it. An
// FNV-1a chain over every solution's plannerHash and the final warm-pivot,
// fast-finish and refactorization counts must not move. It logs the warm
// reduced-cost cache's work over the warm resolves (lp.PhaseTimers.MovedRows
// and RecomputedCols), the candidates their pricing read against the
// variables it skipped (PricedVars, SkippedVars) and the BTRANs skipped on
// carried duals. amd64 only.
func TestChurnTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2000, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	var tm lp.PhaseTimers
	p, err := NewPlanner(in, Options{Seed: 1, LP: lp.Revised{Timers: &tm}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tm = lp.PhaseTimers{} // the warm resolves' counts alone

	next := churnStream(in)
	chain := fnv.New64a()
	var buf [8]byte
	for j := 0; j < 2*51; j++ {
		d := next(j)
		if _, err := p.Update(d); err != nil {
			t.Fatalf("update %d: %v", j, err)
		}
		binary.LittleEndian.PutUint64(buf[:], plannerHash(p))
		chain.Write(buf[:])
	}
	const (
		wantChain        = 0x3d512a7f31f44fff
		wantWarmPivots   = 305
		wantFastFinishes = 57
		wantRefactors    = 22
	)
	st := p.Stats()
	t.Logf("%d warm resolves, %d fast finishes: the reduced-cost cache found %d moved rows and recomputed %d variables; pricing read %d candidates and skipped %d variables; %d BTRANs skipped on carried duals",
		st.WarmSolves, st.FastFinishes, tm.MovedRows, tm.RecomputedCols, tm.PricedVars, tm.SkippedVars, tm.SkippedBtrans)
	if h := chain.Sum64(); h != wantChain || st.WarmPivots != wantWarmPivots ||
		st.FastFinishes != wantFastFinishes || st.Refactorizations != wantRefactors {
		t.Errorf("trajectory moved: got chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d, want chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d",
			h, st.WarmPivots, st.FastFinishes, st.Refactorizations,
			uint64(wantChain), wantWarmPivots, wantFastFinishes, wantRefactors)
	}
}

// plannerHash is solutionHash of the planner's current LP solution, over
// the live slots of its problem.
func plannerHash(p *Planner) uint64 { return solutionHash(p.sol, p.solver.Live) }

// TestChurnCompactionPinned pins, absolutely, a long run of churnStream on
// TestChurnTrajectoryPinned's instance: 16 blocks of 51 updates, long enough
// for the solver's tombstones to cross its compaction threshold at least
// twice. After every update an FNV-1a chain takes plannerHash, the Result's
// utility bits, its LP column count and its sampled pairs; the final
// warm-pivot, fast-finish and refactorization counts must not move either.
// amd64 only.
func TestChurnCompactionPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2000, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	next := churnStream(in)
	chain := fnv.New64a()
	fold := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			chain.Write(buf[:])
		}
	}
	for j := 0; j < 16*51; j++ {
		res, err := p.Update(next(j))
		if err != nil {
			t.Fatalf("update %d: %v", j, err)
		}
		fold(plannerHash(p), math.Float64bits(res.Utility), uint64(res.LPColumns), uint64(res.SampledPairs))
	}
	const (
		wantChain        = 0xd76e12a00287de18
		wantWarmPivots   = 2528
		wantFastFinishes = 429
		wantRefactors    = 44
	)
	st := p.Stats()
	if h := chain.Sum64(); h != wantChain || st.WarmPivots != wantWarmPivots ||
		st.FastFinishes != wantFastFinishes || st.Refactorizations != wantRefactors {
		t.Errorf("trajectory moved: got chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d, want chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d",
			h, st.WarmPivots, st.FastFinishes, st.Refactorizations,
			uint64(wantChain), wantWarmPivots, wantFastFinishes, wantRefactors)
	}
	if st.Compactions < 2 || st.ColdSolves != 1 {
		t.Errorf("%d compactions and %d cold solves, want ≥ 2 compactions on the warm path alone", st.Compactions, st.ColdSolves)
	}
}

// churnStream returns TestChurnTrajectoryPinned's update stream on in: next(j)
// mutates in for update j and returns its delta. Update j%51 == 50 toggles
// 5% of the users, every fifth other update edits the capacity of 5 events
// and the rest toggle one user's last bid. Every toggle flips between the
// generated value and one edit away from it; the draws come from
// xrand.New(1).
func churnStream(in *model.Instance) func(j int) Delta {
	nu, nv := in.NumUsers(), in.NumEvents()
	origBids := make([][]int, nu)
	for u := range in.Users {
		origBids[u] = in.Users[u].Bids
	}
	origCap := make([]int, nv)
	for v := range in.Events {
		origCap[v] = in.Events[v].Capacity
	}
	dropped, lowered := make([]bool, nu), make([]bool, nv)
	toggleUser := func(u int) {
		orig := origBids[u]
		if dropped[u] {
			in.Users[u].Bids = orig
		} else {
			in.Users[u].Bids = orig[: len(orig)-1 : len(orig)-1]
		}
		dropped[u] = !dropped[u]
	}
	toggleEvent := func(v int) {
		switch {
		case lowered[v]:
			in.Events[v].Capacity = origCap[v]
		case origCap[v] > 1:
			in.Events[v].Capacity = origCap[v] - 1
		default:
			in.Events[v].Capacity = origCap[v] + 1
		}
		lowered[v] = !lowered[v]
	}
	rng := xrand.New(1)
	return func(j int) Delta {
		var d Delta
		switch {
		case j%51 == 50:
			d.Users = rng.Perm(nu)[:nu/20]
			for _, u := range d.Users {
				toggleUser(u)
			}
		case j%5 == 4:
			d.Events = rng.Perm(nv)[:5]
			for _, v := range d.Events {
				toggleEvent(v)
			}
		default:
			u := rng.Intn(nu)
			toggleUser(u)
			d.Users = []int{u}
		}
		return d
	}
}

// TestPlannerRoundingPinned pins, absolutely, the rounding half of
// Planner.Update on churnStream's 102 updates. After every update an FNV-1a
// chain takes the Result's utility bits, sampled, dropped and filled pairs,
// LP column count and truncated users; every tenth update it also takes
// Round's utility bits. The first planner runs TestChurnTrajectoryPinned's
// instance under the default options, so Update takes the incremental
// rounding; the second, smaller one uses RepairRandom with GreedyFill, so
// every Update re-rounds in full and fills, and its α and set cap make
// repair drop pairs and truncate users. The third runs the second's
// instance, α and cap through the incremental rounding. amd64 only.
func TestPlannerRoundingPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		cfg  workload.SyntheticConfig
		opt  Options
		want uint64
	}{
		{"incremental", workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2000, NumEvents: 200, MaxEventCap: 100},
			Options{Seed: 1}, 0xc7df8769bb35f567},
		{"random-fill", workload.SyntheticConfig{Seed: 2, NumUsers: 600, NumEvents: 60},
			Options{Seed: 2, Alpha: 0.9, MaxSetsPerUser: 8, Repair: RepairRandom, GreedyFill: true}, 0x00ba6d1d35b4f934},
		{"incremental-truncated", workload.SyntheticConfig{Seed: 2, NumUsers: 600, NumEvents: 60},
			Options{Seed: 2, Alpha: 0.9, MaxSetsPerUser: 8}, 0xb88f2c54f60bba27},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := workload.Synthetic(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlanner(in, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			next := churnStream(in)
			chain := fnv.New64a()
			fold := func(vs ...uint64) {
				var buf [8]byte
				for _, v := range vs {
					binary.LittleEndian.PutUint64(buf[:], v)
					chain.Write(buf[:])
				}
			}
			for j := 0; j < 2*51; j++ {
				res, err := p.Update(next(j))
				if err != nil {
					t.Fatalf("update %d: %v", j, err)
				}
				fold(math.Float64bits(res.Utility), uint64(res.SampledPairs), uint64(res.RepairDropped),
					uint64(res.FilledPairs), uint64(res.LPColumns), uint64(res.TruncatedUsers))
				if j%10 == 9 {
					full, err := p.Round()
					if err != nil {
						t.Fatal(err)
					}
					fold(math.Float64bits(full.Utility))
				}
			}
			if h := chain.Sum64(); h != c.want {
				t.Errorf("rounding moved: got chain=%#x, want %#x", h, c.want)
			}
		})
	}
}

// TestBenchmarkLPFootprint guards the LP's memory layout: building the
// benchmark LP of the Meetup pin instance allocates at most 4 bytes per
// nonzero (Rows, int32) plus 32 bytes per column (ColPtr, C and the
// two-int owner entry) plus O(m) (B and size-class rounding). An array
// that stores 8 bytes per nonzero again, such as a coefficient per entry,
// fails it. The delta of runtime.MemStats.TotalAlloc is taken around a
// build on this goroutine alone.
func TestBenchmarkLPFootprint(t *testing.T) {
	in, sets := meetupPin(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob, owner := BuildBenchmarkLP(in, sets)
	runtime.ReadMemStats(&after)
	n, nnz, m := prob.NumCols(), prob.NNZ(), prob.NumRows
	if len(owner) != n {
		t.Fatalf("%d owner entries for %d columns", len(owner), n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(4*nnz + 32*n + 64*m + 256<<10)
	t.Logf("BuildBenchmarkLP: %d bytes for n=%d nnz=%d m=%d (limit %d)", got, n, nnz, m, limit)
	if got > limit {
		t.Errorf("BuildBenchmarkLP allocated %d bytes, want ≤ 4·nnz + 32·n + O(m) = %d", got, limit)
	}
}

// TestEnumerateLPFootprint guards the column-native build's memory: on the
// Meetup pin instance enumerateLP allocates at most 4 bytes per nonzero
// (Rows) plus 16 bytes per column (ColPtr and C) plus O(m) for B plus O(|U|)
// for the per-user offsets, so it stores no admissible set and allocates
// nothing per set. The whole LPPacking run stays under a malloc-count bound
// far below one per column. Both are deltas of runtime.MemStats around
// calls on this goroutine with one worker.
func TestEnumerateLPFootprint(t *testing.T) {
	in := meetupInstance(t)
	in.Weights()
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob, _, _ := enumerateLP(in, conf, 0, 1)
	runtime.ReadMemStats(&after)
	n, nnz, m, nu := prob.NumCols(), prob.NNZ(), prob.NumRows, in.NumUsers()
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(4*nnz + 16*n + 64*m + 64*nu + 256<<10)
	t.Logf("enumerateLP: %d bytes in %d mallocs for n=%d nnz=%d m=%d (limit %d)", got, after.Mallocs-before.Mallocs, n, nnz, m, limit)
	if got > limit {
		t.Errorf("enumerateLP allocated %d bytes, want ≤ 4·nnz + 16·n + O(m) + O(|U|) = %d", got, limit)
	}

	runtime.ReadMemStats(&before)
	if _, err := LPPacking(in, Options{Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("LPPacking: %d bytes in %d mallocs", after.TotalAlloc-before.TotalAlloc, mallocs)
	const maxMallocs = 20_000
	if mallocs > maxMallocs {
		t.Errorf("LPPacking made %d mallocs for %d columns, want ≤ %d", mallocs, n, maxMallocs)
	}
}
