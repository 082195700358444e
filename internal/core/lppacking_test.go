package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
	"github.com/ebsn/igepa/internal/xrand"
)

// tinyInstance: 3 events (caps 2,1,1; 0-1 conflict), 3 users, β=0.5.
func tinyInstance() *model.Instance {
	si := [][]float64{
		{0.9, 0.5, 0.1},
		{0.4, 0.8, 0.0},
		{0.0, 0.0, 0.7},
	}
	in := &model.Instance{
		Events: []model.Event{{Capacity: 2}, {Capacity: 1}, {Capacity: 1}},
		Users: []model.User{
			{Capacity: 2, Bids: []int{0, 1, 2}, Degree: 2},
			{Capacity: 1, Bids: []int{0, 1}, Degree: 1},
			{Capacity: 1, Bids: []int{2}, Degree: 0},
		},
		Conflicts: func(v, w int) bool {
			return (v == 0 && w == 1) || (v == 1 && w == 0)
		},
		Interest: func(u, v int) float64 { return si[u][v] },
		Beta:     0.5,
	}
	return in
}

// randomInstance builds a small random instance for property tests.
func randomInstance(seed int64) *model.Instance {
	rng := xrand.New(seed)
	nv := 2 + rng.Intn(8)
	nu := 2 + rng.Intn(10)
	conf := conflict.Random(nv, rng.Float64()*0.6, rng)
	in := &model.Instance{
		Conflicts: conf.Conflicts,
		Interest:  func(u, v int) float64 { return xrand.HashFloat(seed, u, v) },
		Beta:      rng.Float64(),
	}
	for v := 0; v < nv; v++ {
		in.Events = append(in.Events, model.Event{Capacity: 1 + rng.Intn(4)})
	}
	for u := 0; u < nu; u++ {
		nb := 1 + rng.Intn(nv)
		seen := map[int]bool{}
		var bids []int
		for len(bids) < nb {
			v := rng.Intn(nv)
			if !seen[v] {
				seen[v] = true
				bids = append(bids, v)
			}
		}
		sortInts(bids)
		in.Users = append(in.Users, model.User{
			Capacity: 1 + rng.Intn(3),
			Bids:     bids,
			Degree:   rng.Intn(nu),
		})
	}
	return in
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestLPPackingFeasibleOnTiny(t *testing.T) {
	in := tinyInstance()
	res, err := LPPacking(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	modeltest.RequireFeasible(t, "lp-packing-tiny", in, res.Arrangement)
	if res.Utility < 0 || res.Utility > res.LPObjective+1e-9 {
		t.Errorf("utility %v outside [0, LP=%v]", res.Utility, res.LPObjective)
	}
	if math.Abs(res.Utility-model.Utility(in, res.Arrangement)) > 1e-12 {
		t.Error("reported utility disagrees with model.Utility")
	}
}

// The LP optimum of the tiny instance: every user can be served their best
// non-conflicting bundle, so the LP is integral here. OPT:
//
//	u0 best set {0,2}: 0.5(0.9+0.1)+0.5(1+1) = 0.5+1.0 = 1.5
//	u1 {1}: 0.5·0.8+0.5·0.5 = 0.65
//	u2 {2}: 0.5·0.7 = 0.35 — but event 2 has capacity 1 and u0 uses it.
//
// LP must choose: give event 2 to u0 (worth 0.55 to u0: 0.5·0.1+0.5·0.5) or
// to u2 (0.35). u0's DPI is 1 so every event is worth ≥0.5 to u0.
// OPT = u0 {0,2} (1.5) + u1 {1} (0.65) = 2.15.
func TestLPPackingLPBoundOnTiny(t *testing.T) {
	in := tinyInstance()
	res, err := LPPacking(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.LPObjective-2.15) > 1e-6 {
		t.Errorf("LP objective %v, want 2.15", res.LPObjective)
	}
	// with α=1 and an integral LP the sampling is deterministic: full value
	if math.Abs(res.Utility-2.15) > 1e-6 {
		t.Errorf("utility %v, want 2.15 (integral LP, α=1)", res.Utility)
	}
}

func TestLPPackingDeterministicPerSeed(t *testing.T) {
	in := tinyInstance()
	a, err := LPPacking(in, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LPPacking(in, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility {
		t.Errorf("same seed, different utilities: %v vs %v", a.Utility, b.Utility)
	}
}

func TestLPPackingAlphaValidation(t *testing.T) {
	in := tinyInstance()
	if _, err := LPPacking(in, Options{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := LPPacking(in, Options{Alpha: -0.1}); err == nil {
		t.Error("alpha < 0 accepted")
	}
	if _, err := LPPacking(in, Options{Alpha: math.NaN()}); err == nil {
		t.Error("alpha = NaN accepted")
	}
	if _, err := LPPacking(in, Options{Alpha: 0.5, Seed: 3}); err != nil {
		t.Errorf("alpha = 0.5 rejected: %v", err)
	}
}

func TestLPPackingRejectsMalformedInstance(t *testing.T) {
	in := tinyInstance()
	in.Beta = 2
	if _, err := LPPacking(in, Options{}); err == nil {
		t.Error("malformed instance accepted")
	}
}

// Property: LP-packing always returns a feasible arrangement whose utility
// never exceeds the LP bound, for any seed/instance/α/repair order.
func TestLPPackingAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		for _, alpha := range []float64{0.5, 1} {
			for _, order := range []RepairOrder{RepairByIndex, RepairRandom, RepairByWeightAsc} {
				res, err := LPPacking(in, Options{Alpha: alpha, Seed: seed, Repair: order})
				if err != nil {
					return false
				}
				if modeltest.Check(in, res.Arrangement) != nil {
					return false
				}
				if res.Utility > res.LPObjective+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyFillOnlyImproves(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		plain, err := LPPacking(in, Options{Seed: seed})
		if err != nil {
			return false
		}
		filled, err := LPPacking(in, Options{Seed: seed, GreedyFill: true})
		if err != nil {
			return false
		}
		if modeltest.Check(in, filled.Arrangement) != nil {
			return false
		}
		// same seed → same sampled sets → fill can only add value
		return filled.Utility >= plain.Utility-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuildBenchmarkLPShape(t *testing.T) {
	in := tinyInstance()
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	sets, trunc := enumerateAll(in, conf, 0, 1)
	if trunc != 0 {
		t.Fatalf("unexpected truncation")
	}
	// u0: bids {0,1,2} cap 2, 0-1 conflict → {0},{1},{2},{0,2},{1,2} = 5
	// u1: bids {0,1} cap 1 → {0},{1} = 2
	// u2: {2} = 1
	if len(sets[0]) != 5 || len(sets[1]) != 2 || len(sets[2]) != 1 {
		t.Fatalf("set counts %d,%d,%d, want 5,2,1", len(sets[0]), len(sets[1]), len(sets[2]))
	}
	prob, owner := BuildBenchmarkLP(in, sets)
	if prob.NumCols() != 8 || len(owner) != 8 {
		t.Fatalf("LP has %d columns, want 8", prob.NumCols())
	}
	if prob.NumRows != 6 {
		t.Fatalf("LP has %d rows, want 6", prob.NumRows)
	}
	if err := prob.Check(); err != nil {
		t.Fatal(err)
	}
	// every column: a 1 in its user row and in each event row
	for j := 0; j < prob.NumCols(); j++ {
		rows := prob.Col(j)
		u := owner[j][0]
		s := sets[u][owner[j][1]]
		if int(rows[0]) != u {
			t.Fatalf("column %d first row %d, want user %d", j, rows[0], u)
		}
		if len(rows) != len(s.Events)+1 {
			t.Fatalf("column %d has %d rows for set of %d events", j, len(rows), len(s.Events))
		}
		if math.Abs(prob.C[j]-s.Weight) > 1e-12 {
			t.Fatalf("column %d objective %v, want %v", j, prob.C[j], s.Weight)
		}
	}
}

func TestSampleSetsRespectsAlpha(t *testing.T) {
	// one user, one set with x* = 1: with α=1 always sampled; with α=0.25
	// sampled about a quarter of the seeds (each seed is one independent
	// draw from the user's stream).
	sets := [][]admissible.Set{{{Events: []int{0}, Weight: 1}}}
	owner := [][2]int{{0, 0}}
	x := []float64{1}
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if SampleSets(1, sets, owner, x, 0.25, int64(i), 1)[0] == 0 {
			hits++
		}
	}
	if p := float64(hits) / trials; math.Abs(p-0.25) > 0.01 {
		t.Errorf("sampling rate %v, want ≈0.25", p)
	}
	for i := 0; i < 100; i++ {
		if SampleSets(1, sets, owner, x, 1, int64(i), 1)[0] != 0 {
			t.Fatal("α=1 with x*=1 failed to sample the set")
		}
	}
}

func TestSampleSetsHandlesRoundoff(t *testing.T) {
	// x* sums to slightly above 1 (LP tolerance); must not panic and must
	// still sample a valid index.
	sets := [][]admissible.Set{{
		{Events: []int{0}, Weight: 1},
		{Events: []int{1}, Weight: 1},
	}}
	owner := [][2]int{{0, 0}, {0, 1}}
	x := []float64{0.7, 0.3000001}
	for i := 0; i < 1000; i++ {
		got := SampleSets(1, sets, owner, x, 1, int64(i), 0)[0]
		if got != 0 && got != 1 {
			t.Fatalf("sampled %d", got)
		}
	}
}

func TestRepairSemantics(t *testing.T) {
	// Event 0 capacity 1, three users sampled {0}: index order keeps the
	// LAST scanned holders after drops — verify exactly: load=3, cap=1:
	// u0 scanned: load 3 > 1 → drop, load 2. u1: 2 > 1 → drop, load 1.
	// u2: 1 ≤ 1 → keep.
	in := &model.Instance{
		Events: []model.Event{{Capacity: 1}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
		},
		Conflicts: func(v, w int) bool { return false },
		Interest:  func(u, v int) float64 { return 1 },
		Beta:      1,
	}
	sets := [][]admissible.Set{
		{{Events: []int{0}, Weight: 1}},
		{{Events: []int{0}, Weight: 1}},
		{{Events: []int{0}, Weight: 1}},
	}
	chosen := []int{0, 0, 0}
	arr, dropped := Repair(in, sets, chosen, RepairByIndex, xrand.New(1))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(arr.Sets[0]) != 0 || len(arr.Sets[1]) != 0 || len(arr.Sets[2]) != 1 {
		t.Fatalf("repair kept wrong users: %v", arr.Sets)
	}
	if err := model.Validate(in, arr); err != nil {
		t.Fatal(err)
	}
}

func TestRepairWeightOrderKeepsHeavy(t *testing.T) {
	// Same contention, distinct weights: weight-ascending scan drops the
	// light users first, so the heaviest holder survives.
	in := &model.Instance{
		Events: []model.Event{{Capacity: 1}},
		Users: []model.User{
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
			{Capacity: 1, Bids: []int{0}},
		},
		Conflicts: func(v, w int) bool { return false },
		Interest: func(u, v int) float64 {
			return []float64{0.2, 0.9, 0.5}[u]
		},
		Beta: 1,
	}
	sets := [][]admissible.Set{
		{{Events: []int{0}, Weight: 0.2}},
		{{Events: []int{0}, Weight: 0.9}},
		{{Events: []int{0}, Weight: 0.5}},
	}
	arr, dropped := Repair(in, sets, []int{0, 0, 0}, RepairByWeightAsc, xrand.New(1))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(arr.Sets[1]) != 1 {
		t.Fatalf("heaviest user lost its event: %v", arr.Sets)
	}
}

func TestRepairNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
		sets, _ := enumerateAll(in, conf, 0, 1)
		rng := xrand.New(seed)
		chosen := make([]int, in.NumUsers())
		for u := range chosen {
			if len(sets[u]) == 0 {
				chosen[u] = -1
			} else {
				chosen[u] = rng.Intn(len(sets[u])) // ignore LP: adversarial
			}
		}
		for _, order := range []RepairOrder{RepairByIndex, RepairRandom, RepairByWeightAsc} {
			arr, _ := Repair(in, sets, chosen, order, xrand.New(seed+1))
			arr.Normalize()
			if model.Validate(in, arr) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRepairOrderString(t *testing.T) {
	if RepairByIndex.String() != "index" || RepairRandom.String() != "random" ||
		RepairByWeightAsc.String() != "weight-asc" || RepairOrder(9).String() == "" {
		t.Error("RepairOrder.String broken")
	}
}
