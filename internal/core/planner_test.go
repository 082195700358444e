package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// plannerObjTol is the warm-vs-cold objective tolerance: both solves prove
// optimality of the same LP (certified by lp.Verify below), but may stop at
// different vertices of a degenerate optimum.
const plannerObjTol = 1e-8

// mutateInstance applies a scripted random mutation to the instance —
// add/remove bids, shrink or restore event capacities — and returns the
// delta describing it. The instance stays structurally valid (sorted bids,
// non-negative capacities).
func mutateInstance(in *model.Instance, rng *xrand.RNG) Delta {
	var d Delta
	nu, nv := in.NumUsers(), in.NumEvents()
	users := 1 + rng.Intn(3)
	for k := 0; k < users; k++ {
		u := rng.Intn(nu)
		usr := &in.Users[u]
		switch {
		case len(usr.Bids) > 0 && rng.Bool(0.5):
			// a bid expires
			i := rng.Intn(len(usr.Bids))
			usr.Bids = append(usr.Bids[:i:i], usr.Bids[i+1:]...)
		default:
			// a bid arrives (sorted insert, skip if already present)
			v := rng.Intn(nv)
			if !model.Contains(usr.Bids, v) {
				bids := append([]int(nil), usr.Bids...)
				bids = append(bids, v)
				for i := len(bids) - 1; i > 0 && bids[i-1] > bids[i]; i-- {
					bids[i-1], bids[i] = bids[i], bids[i-1]
				}
				usr.Bids = bids
			}
		}
		d.Users = append(d.Users, u)
	}
	if rng.Bool(0.7) {
		v := rng.Intn(nv)
		ev := &in.Events[v]
		if ev.Capacity > 0 && rng.Bool(0.7) {
			ev.Capacity-- // a seat is consumed elsewhere
		} else {
			ev.Capacity++
		}
		d.Events = append(d.Events, v)
	}
	return d
}

// requirePlannerColumns decodes every user's column list from the solver's
// problem and requires it to be admissible.Enumerate on the current
// instance: the same sets in the same order, each column decoding to its
// set's events and weight bits (requireColumnIsSet). Every LP column sits in
// exactly one list, and the truncated-user count is current.
func requirePlannerColumns(t *testing.T, label string, p *Planner) {
	t.Helper()
	prob := p.solver.Problem()
	sets, truncated := enumerateAll(p.in, p.conf, p.opt.MaxSetsPerUser, 1)
	if p.truncCount != truncated {
		t.Fatalf("%s: planner counts %d truncated users, Enumerate %d", label, p.truncCount, truncated)
	}
	listed := make([]bool, prob.NumCols())
	for u, cs := range p.cols {
		if len(cs) != len(sets[u]) {
			t.Fatalf("%s: user %d lists %d columns, Enumerate gives %d sets", label, u, len(cs), len(sets[u]))
		}
		for k, j := range cs {
			if j < 0 || int(j) >= len(listed) || listed[j] {
				t.Fatalf("%s: user %d set %d is column %d: out of range or already listed", label, u, k, j)
			}
			listed[j] = true
			requireColumnIsSet(t, prob, p.in.NumUsers(), int(j), u, sets[u][k])
		}
	}
	for j, ok := range listed {
		if !ok {
			t.Fatalf("%s: column %d is in no user's list", label, j)
		}
	}
}

// requireUpdateMatchesColdRebuild runs one Update and cross-checks it
// against a from-scratch Planner on the identical mutated instance: both
// must certify their LP solutions and agree on the optimum.
func requireUpdateMatchesColdRebuild(t *testing.T, label string, p *Planner, d Delta) {
	t.Helper()
	res, err := p.Update(d)
	if err != nil {
		t.Fatalf("%s: Update: %v", label, err)
	}
	if err := lp.Verify(p.solver.Problem(), p.sol, 1e-6); err != nil {
		t.Fatalf("%s: warm LP solution fails certification: %v", label, err)
	}
	if err := model.Validate(p.in, res.Arrangement); err != nil {
		t.Fatalf("%s: rounded arrangement infeasible: %v", label, err)
	}
	requirePlannerColumns(t, label, p)
	cold, err := NewPlanner(p.in, p.opt)
	if err != nil {
		t.Fatalf("%s: cold rebuild: %v", label, err)
	}
	defer cold.Close()
	if err := lp.Verify(cold.solver.Problem(), cold.sol, 1e-6); err != nil {
		t.Fatalf("%s: cold LP solution fails certification: %v", label, err)
	}
	if math.Abs(res.LPObjective-cold.Objective()) > plannerObjTol*(1+math.Abs(cold.Objective())) {
		t.Fatalf("%s: warm objective %v vs cold rebuild %v", label, res.LPObjective, cold.Objective())
	}
}

func TestPlannerMatchesLPPacking(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *model.Instance
	}{
		{"synthetic", parallelTestInstance(t)},
		{"meetup", meetupTestInstance(t)},
		{"synthetic-closed", closedEventsInstance(t)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Seed: 42}
			p, err := NewPlanner(tc.in, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Round()
			if err != nil {
				t.Fatal(err)
			}
			// LPPacking auto-selects the same revised solver at this size, from
			// the same cold start: the pipelines must agree bit-for-bit.
			want, err := LPPacking(tc.in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.LPObjective != want.LPObjective {
				t.Errorf("%s: planner LP objective %v, LPPacking %v", tc.name, res.LPObjective, want.LPObjective)
			}
			if !reflect.DeepEqual(res.Arrangement.Sets, want.Arrangement.Sets) {
				t.Errorf("%s: planner arrangement differs from LPPacking", tc.name)
			}
			if res.Utility != want.Utility {
				t.Errorf("%s: planner utility %v, LPPacking %v", tc.name, res.Utility, want.Utility)
			}
			// Zero-capacity rows are the ones the anti-degeneracy perturbation
			// must leave hard: the solution certifies against the unperturbed LP
			// and nobody is seated at a closed event.
			if err := lp.Verify(p.solver.Problem(), p.sol, 1e-6); err != nil {
				t.Errorf("%s: planner LP solution fails certification: %v", tc.name, err)
			}
			for u, set := range res.Arrangement.Sets {
				for _, v := range set {
					if tc.in.Events[v].Capacity == 0 {
						t.Errorf("%s: user %d seated at closed event %d", tc.name, u, v)
					}
				}
			}
			// Round is deterministic: a second call changes nothing.
			again, err := p.Round()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Arrangement.Sets, again.Arrangement.Sets) {
				t.Errorf("%s: Round not deterministic", tc.name)
			}
			p.Close()
		})
	}
}

// closedEventsInstance is parallelTestInstance with every fourth event
// closed (Capacity 0), so the benchmark LP carries b = 0 rows.
func closedEventsInstance(t *testing.T) *model.Instance {
	t.Helper()
	in := parallelTestInstance(t)
	for v := 0; v < in.NumEvents(); v += 4 {
		in.Events[v].Capacity = 0
	}
	return in
}

func meetupTestInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 3, NumEvents: 60, NumUsers: 450})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPlannerUpdateMatchesColdRebuild is the pinned warm-vs-cold equivalence
// suite: a chain of scripted mutations on synthetic and Meetup instances,
// every step certified against the current LP and compared to a cold
// rebuild.
func TestPlannerUpdateMatchesColdRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *model.Instance
	}{
		{"synthetic", parallelTestInstance(t)},
		{"meetup", meetupTestInstance(t)},
	} {
		p, err := NewPlanner(tc.in, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(1234)
		for step := 0; step < 6; step++ {
			d := mutateInstance(tc.in, rng)
			requireUpdateMatchesColdRebuild(t, tc.name, p, d)
		}
		stats := p.Stats()
		if stats.WarmSolves == 0 {
			t.Errorf("%s: no update took the warm path: %+v", tc.name, stats)
		}
		t.Logf("%s: solver stats %+v", tc.name, stats)
		p.Close()
	}
}

// TestPlannerWorkerInvariance pins that the incremental path, like the
// one-shot pipeline, is bit-identical for every worker count.
func TestPlannerWorkerInvariance(t *testing.T) {
	base := parallelTestInstance(t)
	run := func(workers int) *Result {
		in := cloneInstance(base)
		p, err := NewPlanner(in, Options{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := xrand.New(55)
		var res *Result
		for step := 0; step < 3; step++ {
			d := mutateInstance(in, rng)
			res, err = p.Update(d)
			if err != nil {
				t.Fatal(err)
			}
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		sameResult(t, "planner workers", ref, got)
	}
}

// TestPlannerGOMAXPROCSInvariance re-runs the update chain under different
// GOMAXPROCS values, which drive every auto-sized pool in the pipeline.
func TestPlannerGOMAXPROCSInvariance(t *testing.T) {
	base := parallelTestInstance(t)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	run := func() *Result {
		in := cloneInstance(base)
		p, err := NewPlanner(in, Options{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := xrand.New(77)
		var res *Result
		for step := 0; step < 3; step++ {
			res, err = p.Update(mutateInstance(in, rng))
			if err != nil {
				t.Fatal(err)
			}
		}
		return res
	}
	runtime.GOMAXPROCS(1)
	ref := run()
	runtime.GOMAXPROCS(4)
	sameResult(t, "planner GOMAXPROCS 1 vs 4", ref, run())
}

func TestPlannerRejectsBadOptions(t *testing.T) {
	in := parallelTestInstance(t)
	if _, err := NewPlanner(in, Options{Alpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewPlanner(in, Options{Alpha: math.NaN()}); err == nil {
		t.Error("alpha = NaN accepted")
	}
	p, err := NewPlanner(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Update(Delta{Users: []int{-1}}); err == nil {
		t.Error("negative user index accepted")
	}
	if _, err := p.Update(Delta{Users: []int{in.NumUsers()}}); err == nil {
		t.Error("out-of-range user index accepted")
	}
	if _, err := p.Update(Delta{Events: []int{in.NumEvents()}}); err == nil {
		t.Error("out-of-range event index accepted")
	}
}

// cloneInstance deep-copies the mutable parts of an instance so mutation
// chains can be replayed from the same start state.
func cloneInstance(in *model.Instance) *model.Instance { return in.Clone() }

// FuzzPlannerUpdate mutates an instance through a Planner — bids arriving
// and expiring, capacities shrinking and growing — asserting after every
// update that the warm re-solve matches a cold rebuild and certifies.
func FuzzPlannerUpdate(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(99), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			Seed: seed, NumUsers: 60 + int(uint64(seed)%40), NumEvents: 15,
			MaxEventCap: 6, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlanner(in, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := xrand.New(seed ^ 0x5f5f)
		for step := 0; step < int(steps%8); step++ {
			d := mutateInstance(in, rng)
			res, err := p.Update(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := lp.Verify(p.solver.Problem(), p.sol, 1e-6); err != nil {
				t.Fatalf("step %d: warm certificate: %v", step, err)
			}
			if err := model.Validate(in, res.Arrangement); err != nil {
				t.Fatalf("step %d: infeasible arrangement: %v", step, err)
			}
			requirePlannerColumns(t, fmt.Sprintf("step %d", step), p)
			cold, err := NewPlanner(in, p.opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.LPObjective-cold.Objective()) > 1e-8*(1+math.Abs(cold.Objective())) {
				t.Fatalf("step %d: warm %v vs cold %v", step, res.LPObjective, cold.Objective())
			}
			cold.Close()
		}
	})
}
