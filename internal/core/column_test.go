package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/par"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// enumerateAll computes Au for every user with admissible.Enumerate on the
// bounded worker pool. It returns per-user admissible sets and the number of
// users whose enumeration was truncated.
func enumerateAll(in *model.Instance, conf *conflict.Matrix, maxSets, workers int) ([][]admissible.Set, int) {
	wc := in.Weights()
	sets := make([][]admissible.Set, in.NumUsers())
	trunc := make([]bool, in.NumUsers())
	par.For(par.Workers(workers), in.NumUsers(), 16, func(u int) {
		usr := &in.Users[u]
		r := admissible.Enumerate(usr.Bids, usr.Capacity, conf, func(v int) float64 { return wc.Of(u, v) },
			admissible.Config{MaxSetsPerUser: maxSets})
		sets[u], trunc[u] = r.Sets, r.Truncated
	})
	return sets, countTrue(trunc)
}

// tallDantzigInstance is plan_tall's Dantzig-class instance: 2400 users and
// 200 events, m = 2600 below lp.DevexRowThreshold.
func tallDantzigInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2400, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// meetupInstance is meetupPin's instance without its sets.
func meetupInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, _ := meetupPin(t)
	return in
}

// requireColumnIsSet decodes column j of prob back into (user, events,
// weight) and requires it to equal user u's admissible set s bit for bit:
// the first row is the user's, the rest are the set's event rows in
// ascending order, and C is the set's weight.
func requireColumnIsSet(t *testing.T, prob *lp.Problem, nu, j, u int, s admissible.Set) {
	t.Helper()
	rows := prob.Col(j)
	if int(rows[0]) != u {
		t.Fatalf("column %d: user row %d, want %d", j, rows[0], u)
	}
	if len(rows)-1 != len(s.Events) {
		t.Fatalf("column %d: %d event rows, want %d", j, len(rows)-1, len(s.Events))
	}
	for k, r := range rows[1:] {
		if int(r)-nu != s.Events[k] {
			t.Fatalf("column %d: event row %d decodes to %d, want %d", j, r, int(r)-nu, s.Events[k])
		}
	}
	if math.Float64bits(prob.C[j]) != math.Float64bits(s.Weight) {
		t.Fatalf("column %d: cost %v, want weight %v", j, prob.C[j], s.Weight)
	}
}

// requireColumnsAreSets requires the columns of prob to be the admissible
// sets it was built from, user by user, each user's in set order
// (requireColumnIsSet).
func requireColumnsAreSets(t *testing.T, in *model.Instance, sets [][]admissible.Set, prob *lp.Problem) {
	t.Helper()
	j := 0
	for u, us := range sets {
		for si, s := range us {
			if j >= prob.NumCols() {
				t.Fatalf("LP ends at column %d before user %d set %d", j, u, si)
			}
			requireColumnIsSet(t, prob, in.NumUsers(), j, u, s)
			j++
		}
	}
	if j != prob.NumCols() {
		t.Fatalf("LP has %d columns, sets %d", prob.NumCols(), j)
	}
}

// TestBenchmarkLPColumnsAreSets pins the invariant the column-native LP
// build relies on: a column of BuildBenchmarkLP carries everything of its
// admissible set, and owner names the sets in column order.
func TestBenchmarkLPColumnsAreSets(t *testing.T) {
	cases := []struct {
		name string
		in   func(t *testing.T) *model.Instance
	}{
		{"meetup-400", meetupInstance},
		{"tall-dantzig", tallDantzigInstance},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.in(t)
			sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
			prob, owner := BuildBenchmarkLP(in, sets)
			requireColumnsAreSets(t, in, sets, prob)
			j := 0
			for u, us := range sets {
				for si := range us {
					if owner[j] != [2]int{u, si} {
						t.Fatalf("owner[%d] = %v, want [%d %d]", j, owner[j], u, si)
					}
					j++
				}
			}
		})
	}
}

// syntheticInstance returns a loader of the Synthetic instance cfg.
func syntheticInstance(cfg workload.SyntheticConfig) func(t *testing.T) *model.Instance {
	return func(t *testing.T) *model.Instance {
		t.Helper()
		in, err := workload.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
}

// arrangementHash is an FNV-1a hash over every user's index, set size and
// events, in user order.
func arrangementHash(arr *model.Arrangement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for u, set := range arr.Sets {
		put(u)
		put(len(set))
		for _, v := range set {
			put(v)
		}
	}
	return h.Sum64()
}

// TestLPPackingPinned pins, absolutely, LPPacking's result on the Meetup
// pin instance and on plan_tall's Dantzig-class instance, once with a
// MaxSetsPerUser that truncates nearly every user (so the singleton top-up
// feeds the LP), and on three small LPs (m ≤ 52 rows, under 800 columns):
// two 40-user Synthetic instances at α = 1 and α = ½, and one
// 12-user instance shaped like the ratio study's. It pins the utility's and
// the LP objective's bits, an FNV-1a hash of the arrangement, the sampled
// and dropped pairs, the truncated users and the column count. amd64 only.
func TestLPPackingPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		in   func(t *testing.T) *model.Instance
		opt  Options
		// want
		utility, objective uint64
		pairs, dropped     int
		truncated, columns int
		arrangement        uint64
	}{
		{"meetup-400", meetupInstance, Options{Seed: 1},
			0x408c3a9729fc4388, 0x408c3a97b9fbaabb, 2061, 0, 11, 526610, 0x28009c9cc9638d01},
		{"tall-dantzig", tallDantzigInstance, Options{Seed: 3},
			0x40a61453b8982474, 0x40a614542690047b, 4936, 0, 0, 32899, 0xe92abb04b7a46a5b},
		{"tall-dantzig-truncated", tallDantzigInstance, Options{Seed: 2, MaxSetsPerUser: 7},
			0x40a5d89876b87db9, 0x40a5d898e2f372c1, 4847, 0, 1876, 22043, 0x22e80184dfb74e74},
		{"small-40", syntheticInstance(workload.SyntheticConfig{Seed: 1, NumUsers: 40, NumEvents: 12}), Options{Seed: 1},
			0x40493ed7a1c940cd, 0x40493ed8254d86f1, 85, 0, 0, 690, 0xb9ad3bcde3698ece},
		{"small-40-half", syntheticInstance(workload.SyntheticConfig{Seed: 2, NumUsers: 40, NumEvents: 12}), Options{Seed: 2, Alpha: 0.5},
			0x403694896d262587, 0x40484d40e6f96d64, 43, 0, 0, 749, 0xc6922047ca00d5ae},
		{"ratio-12", syntheticInstance(workload.SyntheticConfig{Seed: 209_459, NumUsers: 12, NumEvents: 8,
			MaxEventCap: 2, MaxUserCap: 3, MinBids: 2, MaxBids: 4}), Options{Seed: 3, Alpha: 0.5},
			0x4015cf87684cad9e, 0x401a9fc442966cfa, 9, 0, 0, 68, 0x34bf280c2b715780},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := LPPacking(c.in(t), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			u, obj, arr := math.Float64bits(res.Utility), math.Float64bits(res.LPObjective), arrangementHash(res.Arrangement)
			if u != c.utility || obj != c.objective || res.SampledPairs != c.pairs || res.RepairDropped != c.dropped ||
				res.TruncatedUsers != c.truncated || res.LPColumns != c.columns || arr != c.arrangement {
				t.Errorf("result moved: got utility=%#x (%v) objective=%#x (%v) pairs=%d dropped=%d truncated=%d columns=%d arrangement=%#x, "+
					"want utility=%#x objective=%#x pairs=%d dropped=%d truncated=%d columns=%d arrangement=%#x",
					u, res.Utility, obj, res.LPObjective, res.SampledPairs, res.RepairDropped, res.TruncatedUsers, res.LPColumns, arr,
					c.utility, c.objective, c.pairs, c.dropped, c.truncated, c.columns, c.arrangement)
			}
		})
	}
}

// requireSameLP requires two LPs to be equal bit for bit: rows, B, C,
// ColPtr and Rows.
func requireSameLP(t *testing.T, got, want *lp.Problem) {
	t.Helper()
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case got.NumRows != want.NumRows:
		t.Fatalf("%d rows, want %d", got.NumRows, want.NumRows)
	case !sameBits(got.B, want.B):
		t.Fatalf("B = %v, want %v", got.B, want.B)
	case !sameBits(got.C, want.C):
		t.Fatalf("C differs (%d columns, want %d)", len(got.C), len(want.C))
	case !slices.Equal(got.ColPtr, want.ColPtr):
		t.Fatalf("ColPtr differs (%d entries, want %d)", len(got.ColPtr), len(want.ColPtr))
	case !slices.Equal(got.Rows, want.Rows):
		t.Fatalf("Rows differ (%d nonzeros, want %d)", len(got.Rows), len(want.Rows))
	}
}

// requireColumnBuild requires enumerateLP to build BuildBenchmarkLP's LP
// over Enumerate's sets, with each user's columns at its own range and the
// same truncation count.
func requireColumnBuild(t *testing.T, in *model.Instance, maxSets, workers int) {
	t.Helper()
	in.Weights()
	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	sets, wantTrunc := enumerateAll(in, conf, maxSets, 1)
	want, _ := BuildBenchmarkLP(in, sets)
	got, colStart, trunc := enumerateLP(in, conf, maxSets, workers)
	requireSameLP(t, got, want)
	if countTrue(trunc) != wantTrunc {
		t.Fatalf("%d truncated users, want %d", countTrue(trunc), wantTrunc)
	}
	for u, us := range sets {
		if colStart[u+1]-colStart[u] != len(us) {
			t.Fatalf("user %d owns columns [%d,%d), want %d sets", u, colStart[u], colStart[u+1], len(us))
		}
	}
}

// TestEnumerateLPMatchesBuildBenchmarkLP runs the column-native build on
// the pin instances, once truncating nearly every user.
func TestEnumerateLPMatchesBuildBenchmarkLP(t *testing.T) {
	requireColumnBuild(t, meetupInstance(t), 0, 2)
	requireColumnBuild(t, tallDantzigInstance(t), 7, 4)
}

// FuzzColumnBuild: on small random instances and caps, truncating ones
// included, the count-then-fill LP equals BuildBenchmarkLP over Enumerate's
// sets bit for bit, at every worker count.
func FuzzColumnBuild(f *testing.F) {
	f.Add(int64(1), 0, uint8(1))
	f.Add(int64(7), 3, uint8(2))
	f.Add(int64(42), 1, uint8(3))
	f.Add(int64(5), -1, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, maxSets int, workers uint8) {
		requireColumnBuild(t, randomInstance(seed), maxSets%12, 1+int(workers%4))
	})
}

// TestLPPackingMatchesStagedPipeline: LPPacking equals the staged pipeline
// of exported stages the benchmark re-enacts — BuildBenchmarkLP over
// Enumerate's sets, lp.SolveConfig, SampleSets, Repair, the optional fill
// and Normalize — in utility bits and in sampled, dropped and filled pairs,
// over α, repair orders, fill, truncation and worker counts, on plan_tall's
// Dantzig-class instance and a Table I default instance.
func TestLPPackingMatchesStagedPipeline(t *testing.T) {
	instances := []struct {
		name string
		in   func(t *testing.T) *model.Instance
	}{
		{"tall-dantzig", tallDantzigInstance},
		{"table-i", func(t *testing.T) *model.Instance {
			in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return in
		}},
	}
	orders := []RepairOrder{RepairByIndex, RepairRandom, RepairByWeightAsc}
	for _, ic := range instances {
		for m, maxSets := range []int{0, 7} {
			in := ic.in(t)
			in.Weights()
			conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
			sets, _ := enumerateAll(in, conf, maxSets, 0)
			prob, owner := BuildBenchmarkLP(in, sets)
			sol, err := lp.SolveConfig(prob, lp.Revised{})
			if err != nil {
				t.Fatal(err)
			}
			// Each (α, order) pair runs once per instance, half of them
			// truncated; fill and the worker count alternate.
			for k, order := range orders {
				{
					alpha := []float64{1, 0.5}[(k+m)%2]
					opt := Options{Alpha: alpha, Seed: int64(3 + k), MaxSetsPerUser: maxSets, Repair: order,
						GreedyFill: (k+m)%2 == 0, Workers: 1 + 3*(k%2)}
					name := fmt.Sprintf("%s/max%d/alpha%v/%v/fill=%v/w%d", ic.name, maxSets, alpha, order, opt.GreedyFill, opt.Workers)
					t.Run(name, func(t *testing.T) {
						res, err := LPPacking(in, opt)
						if err != nil {
							t.Fatal(err)
						}
						chosen := SampleSets(in.NumUsers(), sets, owner, sol.X, alpha, opt.Seed, opt.Workers)
						pairs := 0
						for u, c := range chosen {
							if c >= 0 {
								pairs += len(sets[u][c].Events)
							}
						}
						arr, dropped := Repair(in, sets, chosen, order, xrand.New(opt.Seed))
						filled := 0
						if opt.GreedyFill {
							filled = greedyFill(in, conf, arr)
						}
						arr.Normalize()
						u := model.Utility(in, arr)
						if math.Float64bits(u) != math.Float64bits(res.Utility) || pairs != res.SampledPairs ||
							dropped != res.RepairDropped || filled != res.FilledPairs {
							t.Errorf("LPPacking utility=%v pairs=%d dropped=%d filled=%d, staged utility=%v pairs=%d dropped=%d filled=%d",
								res.Utility, res.SampledPairs, res.RepairDropped, res.FilledPairs, u, pairs, dropped, filled)
						}
					})
				}
			}
		}
	}
}

// TestColumnRoundingMatchesSetRounding drives the rounding kernels where
// repair bites: on small random instances every user spreads its LP mass
// evenly over its sets, and the column path (Planner.Round's tail on
// enumerateLP's column lists) must equal the set path (SampleSets over
// BuildBenchmarkLP's owner map, then the repair of the stored sets) for
// every α and repair order.
func TestColumnRoundingMatchesSetRounding(t *testing.T) {
	sawDrop := false
	for seed := int64(0); seed < 40; seed++ {
		in := randomInstance(seed)
		in.Weights()
		conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
		sets, trunc := enumerateAll(in, conf, 0, 1)
		prob, owner := BuildBenchmarkLP(in, sets)
		_, colStart, _ := enumerateLP(in, conf, 0, 1)
		cols := columnLists(colStart)
		x := make([]float64, prob.NumCols())
		for j, ow := range owner {
			x[j] = 1 / float64(len(sets[ow[0]]))
		}
		sol := &lp.Solution{Status: lp.Optimal, X: x, Y: make([]float64, prob.NumRows)}
		for _, alpha := range []float64{1, 0.5} {
			for _, order := range []RepairOrder{RepairByIndex, RepairRandom, RepairByWeightAsc} {
				opt := Options{Alpha: alpha, Seed: seed, Repair: order, Workers: 2}
				got := roundLP(in, conf, prob, cols, sol, opt, trunc)
				chosen := SampleSets(in.NumUsers(), sets, owner, x, alpha, seed, 1)
				want := finish(in, conf, setPicks(sets, chosen), prob.NumCols(), sol, opt, xrand.New(seed), trunc)
				if !reflect.DeepEqual(got.Arrangement, want.Arrangement) || got.SampledPairs != want.SampledPairs ||
					got.RepairDropped != want.RepairDropped || math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
					t.Fatalf("seed %d α=%v %v: column path %+v, set path %+v", seed, alpha, order, got, want)
				}
				sawDrop = sawDrop || got.RepairDropped > 0
			}
		}
	}
	if !sawDrop {
		t.Fatal("no repair dropped a pair")
	}
}
