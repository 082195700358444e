package core

import (
	"testing"

	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
)

// fractionalRounding builds in's benchmark LP, fabricates the LP solution
// x for it, and returns the tail of Algorithm 1 — sampling, repair, scoring
// (roundColumns) — run on that solution for a given seed. On the generated
// workloads the benchmark LP solves integrally, so the sampling-collision →
// repair path never fires there; this fixture forces the fractional regime
// the ¼-approximation guarantee was designed for.
func fractionalRounding(t *testing.T, in *model.Instance, x []float64, alpha float64) func(seed int64) *Result {
	t.Helper()
	in.Weights()
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	prob, colStart, truncated := enumerateLP(in, conf, 0, 1)
	if prob.NumCols() != len(x) {
		t.Fatalf("benchmark LP has %d columns, fabricated solution %d", prob.NumCols(), len(x))
	}
	obj := 0.0
	for j := range x {
		obj += prob.C[j] * x[j]
	}
	sol := &lp.Solution{Status: lp.Optimal, X: x, Y: make([]float64, prob.NumRows), Objective: obj}
	return func(seed int64) *Result {
		return roundColumns(in, conf, prob, colStart, sol, Options{Alpha: alpha, Seed: seed}, countTrue(truncated))
	}
}

// contendedInstance: one event of capacity 1, three users who each bid only
// for it. Au per user = {{0}}, so the LP has exactly 3 columns.
func contendedInstance() *model.Instance {
	return &model.Instance{
		Events: []model.Event{{Capacity: 1}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}, Degree: 0},
			{Capacity: 1, Bids: []int{0}, Degree: 0},
			{Capacity: 1, Bids: []int{0}, Degree: 0},
		},
		Conflicts: func(v, w int) bool { return false },
		Interest:  func(u, v int) float64 { return 1 },
		Beta:      1,
	}
}

func TestFractionalLPSamplingCollisionsAreRepaired(t *testing.T) {
	in := contendedInstance()
	// fractional optimum: each user gets the event with probability 1/2;
	// expected load 1.5 > capacity 1, so realized collisions are frequent.
	round := fractionalRounding(t, in, []float64{0.5, 0.5, 0.5}, 1)

	sawDrop := false
	sawAssign := false
	for seed := int64(0); seed < 64; seed++ {
		res := round(seed)
		if err := model.Validate(in, res.Arrangement); err != nil {
			t.Fatalf("seed %d: infeasible after repair: %v", seed, err)
		}
		if res.Arrangement.Size() > 1 {
			t.Fatalf("seed %d: event over capacity after repair", seed)
		}
		if res.RepairDropped > 0 {
			sawDrop = true
		}
		if res.Arrangement.Size() == 1 {
			sawAssign = true
		}
		if res.SampledPairs < res.Arrangement.Size() {
			t.Fatalf("seed %d: sampled %d < assigned %d", seed, res.SampledPairs, res.Arrangement.Size())
		}
		// Repair drops only the overflow: an oversubscribed event ends
		// full, and every sampled pair is either kept or counted dropped.
		if want := min(res.SampledPairs, 1); res.Arrangement.Size() != want {
			t.Fatalf("seed %d: sampled %d pairs, repair kept %d, want %d", seed, res.SampledPairs, res.Arrangement.Size(), want)
		}
		if res.RepairDropped != res.SampledPairs-res.Arrangement.Size() {
			t.Fatalf("seed %d: dropped %d, want sampled %d - kept %d", seed, res.RepairDropped, res.SampledPairs, res.Arrangement.Size())
		}
	}
	if !sawDrop {
		t.Error("64 seeds never produced a sampling collision (P ≈ 1 - (1/2)^64·...)")
	}
	if !sawAssign {
		t.Error("64 seeds never assigned the event")
	}
}

func TestFractionalLPAlphaHalfRespectsTheorem(t *testing.T) {
	// With α = 1/2 each user samples with probability 1/4; the expected
	// realized utility must stay within [OPT/4, OPT] — Theorem 2's regime.
	in := contendedInstance()
	round := fractionalRounding(t, in, []float64{0.5, 0.5, 0.5}, 0.5)
	const trials = 4000
	total := 0.0
	for seed := int64(0); seed < trials; seed++ {
		total += round(seed).Utility
	}
	mean := total / trials
	// OPT = 1 (one user attends). Theorem floor = 0.25.
	if mean < 0.25 {
		t.Errorf("E[ALG] = %.3f below the 1/4 floor", mean)
	}
	if mean > 1.0 {
		t.Errorf("E[ALG] = %.3f exceeds OPT", mean)
	}
}

func TestSubDistributionOverflowIsRescaled(t *testing.T) {
	// A (buggy or loosely-toleranced) LP might return Σx > 1 for a user;
	// sampling must renormalize rather than panic or over-assign.
	in := contendedInstance()
	round := fractionalRounding(t, in, []float64{0.7, 0.7, 0.7}, 1)
	for seed := int64(0); seed < 32; seed++ {
		res := round(seed)
		if err := model.Validate(in, res.Arrangement); err != nil {
			t.Fatal(err)
		}
	}
}
