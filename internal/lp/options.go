package lp

import "fmt"

// OptionError reports a Revised tuning knob set to a value outside its
// domain. Every integer knob keeps the "zero means default" convention;
// negative values (and unknown rule names) used to be silently coerced to
// the default, which hid typos like RefactorEvery: -1 in config plumbing —
// now they fail fast at the public entry points (Revised.Solve,
// Solver.Solve, Solver.Resolve) before any state is touched.
type OptionError struct {
	Option string // field name on Revised, e.g. "RefactorEvery"
	Value  any    // the rejected value
	Reason string // what the domain is
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("lp: invalid Revised.%s = %v: %s", e.Option, e.Value, e.Reason)
}

// validate checks the tuning knobs up front. Tested knob by knob in the
// regression table of TestRevisedOptionValidation.
func (s *Revised) validate() error {
	if s.MaxIter < 0 {
		return &OptionError{"MaxIter", s.MaxIter, "must be ≥ 0 (0 selects the default bound)"}
	}
	if s.RefactorEvery < 0 {
		return &OptionError{"RefactorEvery", s.RefactorEvery, "must be ≥ 0 (0 selects the default cadence)"}
	}
	if s.PricingWindow < 0 {
		return &OptionError{"PricingWindow", s.PricingWindow, "must be ≥ 0 (0 selects the default window)"}
	}
	if s.RepairBudget < 0 {
		return &OptionError{"RepairBudget", s.RepairBudget, "must be ≥ 0 (0 selects the delta-proportional budget)"}
	}
	if s.HypersparseThreshold < 0 || s.HypersparseThreshold > 1 || s.HypersparseThreshold != s.HypersparseThreshold {
		return &OptionError{"HypersparseThreshold", s.HypersparseThreshold, "must be in [0, 1] (0 selects the default density)"}
	}
	if s.ParallelThreshold < 0 {
		return &OptionError{"ParallelThreshold", s.ParallelThreshold, "must be ≥ 0 (0 selects the package default)"}
	}
	if s.Workers < 0 {
		return &OptionError{"Workers", s.Workers, "must be ≥ 0 (0 means GOMAXPROCS)"}
	}
	switch s.Pricing {
	case "", "auto", "devex", "dantzig":
	default:
		return &OptionError{"Pricing", s.Pricing, `must be "", "auto", "devex" or "dantzig"`}
	}
	return nil
}
