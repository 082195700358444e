package lp

import (
	"errors"
	"reflect"
	"testing"
)

// TestRevisedOptionValidation is the regression table for validate: a field
// with a value outside its domain must fail fast with an *OptionError naming
// that field, and the zero value must pass.
func TestRevisedOptionValidation(t *testing.T) {
	tiny := NewProblem(1, []float64{1}, []float64{1},
		[]Column{{Rows: []int{0}}})

	bad := []struct {
		name string
		cfg  Revised
		opt  string // expected OptionError.Option
	}{
		{"negative_workers", Revised{Workers: -2}, "Workers"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			_, err := SolveConfig(tiny, cfg)
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
		{}, // zero value: every setting at its default
		{Workers: 2},
	}
	for i, cfg := range good {
		if _, err := SolveConfig(tiny, cfg); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	// Resolve revalidates: corrupting the config after a successful Solve
	// must be caught at the next warm call, before the delta is applied.
	s := NewSolver(Revised{})
	if _, err := s.Solve(tiny); err != nil {
		t.Fatal(err)
	}
	s.cfg.Workers = -1
	_, err := s.Resolve(ProblemDelta{SetB: []BoundChange{{Row: 0, B: 2}}})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Option != "Workers" {
		t.Fatalf("Resolve with corrupted config: err = %v, want OptionError on Workers", err)
	}
	if got := s.Problem().B[0]; got != 1 {
		t.Fatalf("rejected Resolve mutated the problem: B[0] = %v, want 1", got)
	}
	s.cfg.Workers = 0
	if _, err := s.Resolve(ProblemDelta{SetB: []BoundChange{{Row: 0, B: 2}}}); err != nil {
		t.Fatalf("Resolve after repairing config: %v", err)
	}
	s.Release()
}

// TestRevisedSurface pins the solver's public configuration surface: a
// caller sets the worker bound and the phase-timer sink and nothing else,
// and a Solver is configured only through NewSolver.
func TestRevisedSurface(t *testing.T) {
	exported := func(t reflect.Type) []string {
		var names []string
		for _, f := range reflect.VisibleFields(t) {
			if f.IsExported() {
				names = append(names, f.Name)
			}
		}
		return names
	}
	if got, want := exported(reflect.TypeOf((*Revised)(nil)).Elem()), []string{"Workers", "Timers"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Revised exports %v, want %v", got, want)
	}
	if got := exported(reflect.TypeOf((*Solver)(nil)).Elem()); len(got) != 0 {
		t.Errorf("Solver exports %v, want no fields", got)
	}
}
