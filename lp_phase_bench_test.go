package igepa_test

// BenchmarkLPPhases is the per-phase profile behind BENCH_lp.json: cold
// solves and warm 10%-bid-delta resolves of the benchmark LP at |U| = 1000
// and 4000, with the solver's PhaseTimers split (ftran/btran/pricing/update/
// factor) reported per op. BenchmarkDualRepairPricing runs the dual
// steepest-edge repair on a capacity-shrink delta, reporting repair pivots
// per resolve — a count that must hold even on a single-core runner.

import (
	"math"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/lp"
)

// reportPhases emits the accumulated phase split as per-op metrics.
func reportPhases(b *testing.B, tm *lp.PhaseTimers, n int) {
	metric := func(name string, d time.Duration) {
		b.ReportMetric(float64(d.Nanoseconds())/float64(n), name+"-ns/op")
	}
	metric("ftran", tm.Ftran)
	metric("btran", tm.Btran)
	metric("pricing", tm.Pricing)
	metric("update", tm.Update)
	metric("factor", tm.Factor)
	b.ReportMetric(float64(tm.Pivots)/float64(n), "pivots/op")
	// Devex updates served by the sparse pivot-row scatter; the rest paid
	// a pass over every column. Its share of pivots/op is the sparsity the
	// Devex update's speed depends on.
	b.ReportMetric(float64(tm.RowPricedUpdates)/float64(n), "row-priced/op")
	if tm.RepairPivots > 0 {
		b.ReportMetric(float64(tm.RepairPivots)/float64(n), "repair-pivots/op")
	}
}

func BenchmarkLPPhases(b *testing.B) {
	scenarios := []struct {
		name                  string
		users, events, stride int
	}{
		{"U1000_d10", 1000, 100, 10},
		{"U4000_d10", 4000, 200, 10},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			f := buildWarmFixtureAt(b, sc.users, sc.events, sc.stride)

			b.Run("cold", func(b *testing.B) {
				tm := &lp.PhaseTimers{}
				cfg := lp.Revised{Timers: tm}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cfg.Solve(f.probA); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportPhases(b, tm, b.N)
			})

			// Bid-churn delta: at |U|=1000 this stays warm; at |U|=4000 the
			// churn removes enough basic columns at once that the dual repair
			// stalls and the solver (correctly) falls back cold — a pre-
			// existing repair limit, surfaced honestly by fallbacks/op rather
			// than hidden by a smaller delta.
			b.Run("warm_bids", func(b *testing.B) {
				tm := &lp.PhaseTimers{}
				s := lp.NewSolver(lp.Revised{Timers: tm})
				defer s.Release()
				if _, err := s.Solve(cloneLP(f.probA)); err != nil {
					b.Fatal(err)
				}
				// prime the toggle so the timed loop only sees tail deltas
				if _, err := s.Resolve(f.dFirstToB); err != nil {
					b.Fatal(err)
				}
				before := s.Stats()
				toA := true
				tm.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := f.dTailToB
					if toA {
						d = f.dTailToA
					}
					if _, err := s.Resolve(d); err != nil {
						b.Fatal(err)
					}
					toA = !toA
				}
				b.StopTimer()
				st := s.Stats()
				fallbacks := totalFallbacks(st) - totalFallbacks(before)
				b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
				reportPhases(b, tm, b.N)
			})

			// Bound-churn delta: capacities move on a slice of the event rows
			// (every 8th), the shape of serving-side capacity updates between
			// resolves. Always warm (repair-driven): each op is ONE Resolve,
			// alternating shrink/restore like warm_bids, so ns/op compares
			// directly against cold. The full-width all-rows shrink stress
			// case is covered by BenchmarkDualRepairPricing below.
			b.Run("warm_bounds", func(b *testing.B) {
				shrink, restore := capacityChurnDeltas(f.probA, sc.users, sc.events, 0.75, 8)
				tm := &lp.PhaseTimers{}
				s := lp.NewSolver(lp.Revised{Timers: tm})
				defer s.Release()
				if _, err := s.Solve(cloneLP(f.probA)); err != nil {
					b.Fatal(err)
				}
				// prime the toggle so the timed loop alternates steady-state
				if _, err := s.Resolve(shrink); err != nil {
					b.Fatal(err)
				}
				toRestore := true
				tm.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := shrink
					if toRestore {
						d = restore
					}
					if _, err := s.Resolve(d); err != nil {
						b.Fatal(err)
					}
					toRestore = !toRestore
				}
				b.StopTimer()
				if st := s.Stats(); totalFallbacks(st) > 0 {
					b.Fatalf("bound toggle fell back to cold solves: %+v", st)
				}
				reportPhases(b, tm, b.N)
			})
		})
	}
}

// totalFallbacks sums the per-reason cold-fallback counters.
func totalFallbacks(st lp.SolverStats) int {
	return st.FallbackSingular + st.FallbackInfeasible + st.FallbackRepairStall +
		st.FallbackBoundInfeasible + st.FallbackError
}

// capacityShrinkDeltas builds a delta cutting every event capacity to
// floor(frac·b) — turning the optimal basis primal infeasible across many
// interacting rows at once, so the repair's leaving-row choice matters —
// and its inverse restoring the original bounds (warm, repair-free).
func capacityShrinkDeltas(p *lp.Problem, users, events int, frac float64) (shrink, restore lp.ProblemDelta) {
	return capacityChurnDeltas(p, users, events, frac, 1)
}

// capacityChurnDeltas is capacityShrinkDeltas restricted to every `every`-th
// event row — a bounded perturbation matching incremental capacity updates
// between serving resolves, rather than an all-rows shock.
func capacityChurnDeltas(p *lp.Problem, users, events int, frac float64, every int) (shrink, restore lp.ProblemDelta) {
	for v := 0; v < events; v += every {
		row := users + v
		old := p.B[row]
		shrink.SetB = append(shrink.SetB, lp.BoundChange{Row: row, B: math.Floor(old * frac)})
		restore.SetB = append(restore.SetB, lp.BoundChange{Row: row, B: old})
	}
	return shrink, restore
}

// dseRepairPivotCeiling is the dual steepest-edge repair's pivot count on
// the U1000 75%-shrink fixture when the rule became the only one. The
// most-infeasible rule it replaced needed 1071 on the same delta.
const dseRepairPivotCeiling = 699

// TestDualSteepestEdgeReducesRepairPivots pins the dse leaving rule's pivot
// count absolutely: the capacity-shrink repair with many competing
// infeasible rows must need at most dseRepairPivotCeiling dual pivots and
// land on a certified optimum without a cold fallback.
func TestDualSteepestEdgeReducesRepairPivots(t *testing.T) {
	const users, events = 1000, 100
	f := buildWarmFixtureAt(t, users, events, 10)
	shrink, _ := capacityShrinkDeltas(f.probA, users, events, 0.75)
	tm := &lp.PhaseTimers{}
	s := lp.NewSolver(lp.Revised{Timers: tm})
	defer s.Release()
	if _, err := s.Solve(f.probA); err != nil {
		t.Fatal(err)
	}
	tm.Reset()
	sol, err := s.Resolve(shrink)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); totalFallbacks(st) > 0 {
		t.Fatalf("repair fell back to a cold solve: %+v", st)
	}
	if err := lp.Verify(s.Problem(), sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	t.Logf("repair pivots: %d (ceiling %d)", tm.RepairPivots, dseRepairPivotCeiling)
	if tm.RepairPivots == 0 {
		t.Fatal("shrink delta did not exercise the dual repair")
	}
	if tm.RepairPivots > dseRepairPivotCeiling {
		t.Errorf("dse used %d repair pivots, ceiling %d", tm.RepairPivots, dseRepairPivotCeiling)
	}
}

func BenchmarkDualRepairPricing(b *testing.B) {
	const users, events = 1000, 100
	f := buildWarmFixtureAt(b, users, events, 10)
	shrink, restore := capacityShrinkDeltas(f.probA, users, events, 0.75)
	b.Run("dse", func(b *testing.B) {
		tm := &lp.PhaseTimers{}
		s := lp.NewSolver(lp.Revised{Timers: tm})
		defer s.Release()
		if _, err := s.Solve(cloneLP(f.probA)); err != nil {
			b.Fatal(err)
		}
		tm.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Resolve(shrink); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Resolve(restore); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := s.Stats(); st.FallbackSingular+st.FallbackInfeasible > 0 {
			b.Fatalf("repair benchmark fell back to cold solves: %+v", st)
		}
		b.ReportMetric(float64(tm.RepairPivots)/float64(b.N), "repair-pivots/op")
		b.ReportMetric(float64(tm.Pivots)/float64(b.N), "pivots/op")
	})
}
