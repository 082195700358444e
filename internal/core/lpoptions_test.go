package core

import (
	"errors"
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/lp"
)

// TestOptionsLPKnobsPlumbed pins the Options.LP pass-through: invalid solver
// knobs fail fast as *lp.OptionError from both LPPacking and NewPlanner, and
// valid non-default knobs (forced Devex pricing, tight refactorization
// cadence) reach the solver without changing the certified LP optimum.
func TestOptionsLPKnobsPlumbed(t *testing.T) {
	in := tinyInstance()
	bad := Options{Seed: 1, LP: lp.Revised{RefactorEvery: -1}}
	var oe *lp.OptionError
	if _, err := LPPacking(in, bad); !errors.As(err, &oe) || oe.Option != "RefactorEvery" {
		t.Fatalf("LPPacking with bad LP knob: err = %v, want *lp.OptionError on RefactorEvery", err)
	}
	if _, err := NewPlanner(in.Clone(), bad); !errors.As(err, &oe) || oe.Option != "RefactorEvery" {
		t.Fatalf("NewPlanner with bad LP knob: err = %v, want *lp.OptionError on RefactorEvery", err)
	}

	ref, err := NewPlanner(in.Clone(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	tuned, err := NewPlanner(in.Clone(), Options{Seed: 1, LP: lp.Revised{
		Pricing: "devex", RefactorEvery: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tuned.Close()
	// Different pivot rules, same problem: the optimum value is unique even
	// when the optimal basis is not.
	if d := math.Abs(ref.Objective() - tuned.Objective()); d > 1e-9*(1+math.Abs(ref.Objective())) {
		t.Fatalf("tuned planner objective %v differs from default %v", tuned.Objective(), ref.Objective())
	}
}
