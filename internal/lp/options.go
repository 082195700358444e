package lp

import "fmt"

// OptionError reports a Revised field set to a value outside its domain.
// The one field with a domain to check is Workers, which must be ≥ 0; the
// public entry points (SolveConfig, Solver.Solve and Solver.Resolve) reject a negative value before any state is touched.
type OptionError struct {
	Option string // field name on Revised, e.g. "Workers"
	Value  any    // the rejected value
	Reason string // what the domain is
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("lp: invalid Revised.%s = %v: %s", e.Option, e.Value, e.Reason)
}

// validate checks the caller-set fields up front.
func (s *Revised) validate() error {
	if s.Workers < 0 {
		return &OptionError{"Workers", s.Workers, "must be ≥ 0 (0 means GOMAXPROCS)"}
	}
	return nil
}
