package online

import (
	"errors"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model/modeltest"
)

// TestBudgetConstructorsTypedErrors pins the typed-error contract: malformed
// caller-owned budgets yield a *BudgetError instead of a panic deep inside
// Arrive.
func TestBudgetConstructorsTypedErrors(t *testing.T) {
	in := randomInstance(3)
	nv := in.NumEvents()
	var be *BudgetError

	conf := conflict.FromFunc(nv, in.Conflicts)
	if _, err := NewGreedyBudgetShared(nil, conf, nil, 0, 0, 0); !errors.As(err, &be) {
		t.Errorf("nil instance: err = %v, want *BudgetError", err)
	}
	if _, err := NewGreedyBudgetShared(in, nil, make([]int, nv), 0, 0, 0); !errors.As(err, &be) {
		t.Errorf("nil conflict matrix: err = %v, want *BudgetError", err)
	}
	if _, err := NewGreedyBudgetShared(in, conf, make([]int, nv+1), 0, 0, 0); !errors.As(err, &be) {
		t.Errorf("length mismatch: err = %v, want *BudgetError", err)
	}
	bad := make([]int, nv)
	bad[0] = -1
	if _, err := NewGreedyBudgetShared(in, conf, bad, 0, 0, 0); !errors.As(err, &be) || be.Event != 0 {
		t.Errorf("negative entry: err = %v, want *BudgetError for event 0", err)
	}
	over := make([]int, nv)
	over[nv-1] = in.Events[nv-1].Capacity + 1
	if _, err := NewGreedyBudgetShared(in, conf, over, 0.5, 0.5, 0); !errors.As(err, &be) || be.Event != nv-1 {
		t.Errorf("over-committed lease: err = %v, want *BudgetError for event %d", err, nv-1)
	}
	if (&BudgetError{Event: -1, Reason: "x"}).Error() == "" ||
		(&BudgetError{Event: 2, Reason: "y"}).Error() == "" {
		t.Error("BudgetError.Error empty")
	}

	// a valid budget still constructs
	ok := make([]int, nv)
	for v := range ok {
		ok[v] = in.Events[v].Capacity
	}
	if _, err := NewGreedyBudgetShared(in, conf, ok, 0, 0, 0); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
}

// TestReleaseReturnsSeats pins the cancellation primitive: released seats
// reappear in the planner's headroom and are grantable again.
func TestReleaseReturnsSeats(t *testing.T) {
	in := randomInstance(11)
	p := NewGreedy(in, 0)
	got := p.Arrive(0)
	if len(got) == 0 {
		t.Skip("user 0 got nothing on this seed; pick another seed")
	}
	before := append([]int(nil), p.Loads()...)
	p.Release(got)
	for _, v := range got {
		if p.Loads()[v] != before[v]-1 {
			t.Fatalf("event %d load %d after release, want %d", v, p.Loads()[v], before[v]-1)
		}
	}
	// out-of-range and over-release must be harmless no-ops
	p.Release([]int{-1, in.NumEvents(), in.NumEvents() + 7})
	empty := NewGreedy(in, 0)
	empty.Release([]int{0})
	if empty.Loads()[0] != 0 {
		t.Fatal("release below zero")
	}
}

// TestCachedPlannerMatchesUncached pins that the deprecated SetCache is
// inert: with and without it the greedy and threshold planners produce
// identical arrangements over a full arrival sweep.
func TestCachedPlannerMatchesUncached(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := randomInstance(seed)
		order := fullOrder(in.NumUsers())

		plain, err := Run(in, order, NewGreedy(in, 0))
		if err != nil {
			t.Fatal(err)
		}
		cp := NewGreedy(in, 0)
		cp.SetCache(admissible.NewCache(64))
		cached, err := Run(in, order, cp)
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireEqual(t, "greedy cached vs plain", plain, cached)

		tPlain, err := Run(in, order, NewThreshold(in, 0.4, 0.3, 0))
		if err != nil {
			t.Fatal(err)
		}
		tp := NewThreshold(in, 0.4, 0.3, 0)
		tp.SetCache(admissible.NewCache(64))
		tCached, err := Run(in, order, tp)
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireEqual(t, "threshold cached vs plain", tPlain, tCached)
	}
}
