package lp

import (
	"errors"
	"math"
	"testing"
)

// TestRevisedOptionValidation is the regression table for validate: every
// knob with a value outside its domain must fail fast with an *OptionError
// naming that knob, and the zero value (plus every documented rule name)
// must pass.
func TestRevisedOptionValidation(t *testing.T) {
	tiny := NewProblem(1, []float64{1}, []float64{1},
		[]Column{{Rows: []int{0}}})

	bad := []struct {
		name string
		cfg  Revised
		opt  string // expected OptionError.Option
	}{
		{"negative_max_iter", Revised{MaxIter: -1}, "MaxIter"},
		{"negative_refactor_every", Revised{RefactorEvery: -3}, "RefactorEvery"},
		{"negative_pricing_window", Revised{PricingWindow: -64}, "PricingWindow"},
		{"negative_repair_budget", Revised{RepairBudget: -1}, "RepairBudget"},
		{"hypersparse_threshold_negative", Revised{HypersparseThreshold: -0.25}, "HypersparseThreshold"},
		{"hypersparse_threshold_above_one", Revised{HypersparseThreshold: 1.5}, "HypersparseThreshold"},
		{"hypersparse_threshold_nan", Revised{HypersparseThreshold: math.NaN()}, "HypersparseThreshold"},
		{"negative_parallel_threshold", Revised{ParallelThreshold: -1}, "ParallelThreshold"},
		{"negative_workers", Revised{Workers: -2}, "Workers"},
		{"unknown_pricing", Revised{Pricing: "steepest"}, "Pricing"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			_, err := cfg.Solve(tiny)
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OptionError", err)
			}
			if oe.Option != tc.opt {
				t.Fatalf("OptionError.Option = %q, want %q", oe.Option, tc.opt)
			}
			if oe.Error() == "" {
				t.Fatal("empty error message")
			}
			// the pooled entry rejects identically
			s := NewSolver(cfg)
			if _, err := s.Solve(tiny); !errors.As(err, &oe) || oe.Option != tc.opt {
				t.Fatalf("Solver.Solve: err = %v, want OptionError on %s", err, tc.opt)
			}
			s.Release()
		})
	}

	good := []Revised{
		{}, // zero value: every knob at its default
		{Pricing: "auto"},
		{Pricing: "devex"},
		{Pricing: "dantzig"},
		{MaxIter: 100, RefactorEvery: 1, PricingWindow: 8, ParallelThreshold: 1, Workers: 2},
		{RepairBudget: 10, HypersparseThreshold: 0.5},
		{HypersparseThreshold: 1}, // boundary: every triangular solve hypersparse-eligible
	}
	for i, cfg := range good {
		if _, err := cfg.Solve(tiny); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	// Resolve revalidates: corrupting the config after a successful Solve
	// must be caught at the next warm call, before the delta is applied.
	s := NewSolver(Revised{})
	if _, err := s.Solve(tiny); err != nil {
		t.Fatal(err)
	}
	s.Config.RefactorEvery = -1
	_, err := s.Resolve(ProblemDelta{SetB: []BoundChange{{Row: 0, B: 2}}})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Option != "RefactorEvery" {
		t.Fatalf("Resolve with corrupted config: err = %v, want OptionError on RefactorEvery", err)
	}
	if got := s.Problem().B[0]; got != 1 {
		t.Fatalf("rejected Resolve mutated the problem: B[0] = %v, want 1", got)
	}
	s.Config.RefactorEvery = 0
	if _, err := s.Resolve(ProblemDelta{SetB: []BoundChange{{Row: 0, B: 2}}}); err != nil {
		t.Fatalf("Resolve after repairing config: %v", err)
	}
	s.Release()
}
