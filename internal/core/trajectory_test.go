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

// solutionHash is an FNV-1a hash over the bits of X then Y, with signed
// zeros collapsed.
func solutionHash(sol *lp.Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vec := range [][]float64{sol.X, sol.Y} {
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v+0))
			h.Write(buf[:])
		}
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
	sol, err := (&lp.Revised{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantIters = 3887
		wantObj   = 0x40aa2969d0730611
		wantHash  = 0x6fc191d868e123d0
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
	}
}

// meetupPin is a small Meetup instance, 400 users and the default 190
// events (m = 590), with its admissible sets.
func meetupPin(t *testing.T) (*model.Instance, [][]admissible.Set) {
	t.Helper()
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	return in, sets
}

// TestMeetupTrajectoryPinned pins, absolutely, the default solve of a
// Meetup-shaped benchmark LP. At m = 590 lp.SolveConfig takes the revised
// simplex with Dantzig pricing, so this fixes the pricing scan, the FTRAN of
// BuildBenchmarkLP's columns and the certificate on the paper's own workload
// family: the pivot count, the objective's bits and the X/Y hash must not
// move. amd64 only.
func TestMeetupTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	prob, _ := BuildBenchmarkLP(meetupPin(t))
	sol, err := lp.SolveConfig(prob, lp.Revised{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Verify(prob, sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	const (
		wantIters = 585
		wantObj   = 0x408c3a97b9fbaabb
		wantHash  = 0x4a9d77c3850593e0
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
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
// FNV-1a chain over every solution's solutionHash and the final warm-pivot,
// fast-finish and refactorization counts must not move. amd64 only.
func TestChurnTrajectoryPinned(t *testing.T) {
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
	var buf [8]byte
	for j := 0; j < 2*51; j++ {
		d := next(j)
		if _, err := p.Update(d); err != nil {
			t.Fatalf("update %d: %v", j, err)
		}
		binary.LittleEndian.PutUint64(buf[:], solutionHash(p.sol))
		chain.Write(buf[:])
	}
	const (
		wantChain        = 0x3d512a7f31f44fff
		wantWarmPivots   = 305
		wantFastFinishes = 57
		wantRefactors    = 22
	)
	st := p.Stats()
	if h := chain.Sum64(); h != wantChain || st.WarmPivots != wantWarmPivots ||
		st.FastFinishes != wantFastFinishes || st.Refactorizations != wantRefactors {
		t.Errorf("trajectory moved: got chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d, want chain=%#x warm pivots=%d fast finishes=%d refactorizations=%d",
			h, st.WarmPivots, st.FastFinishes, st.Refactorizations,
			uint64(wantChain), wantWarmPivots, wantFastFinishes, wantRefactors)
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
