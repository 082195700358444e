package admissible

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/xrand"
)

func unitWeight(int) float64 { return 1 }

func TestNoConflictsCountsBinomial(t *testing.T) {
	// 5 non-conflicting bids, cap 3 → C(5,1)+C(5,2)+C(5,3) = 5+10+10 = 25
	m := conflict.NewMatrix(5)
	r := Enumerate([]int{0, 1, 2, 3, 4}, 3, m, unitWeight, Config{})
	if len(r.Sets) != 25 {
		t.Fatalf("got %d sets, want 25", len(r.Sets))
	}
	if r.Truncated {
		t.Fatal("unexpected truncation")
	}
}

func TestFullConflictOnlySingletons(t *testing.T) {
	m := conflict.FromFunc(4, func(v, w int) bool { return true })
	r := Enumerate([]int{0, 1, 2, 3}, 4, m, unitWeight, Config{})
	if len(r.Sets) != 4 {
		t.Fatalf("got %d sets, want 4 singletons", len(r.Sets))
	}
	for _, s := range r.Sets {
		if len(s.Events) != 1 {
			t.Fatalf("non-singleton set %v under complete conflicts", s.Events)
		}
	}
}

func TestCapacityLimitsSize(t *testing.T) {
	m := conflict.NewMatrix(6)
	r := Enumerate([]int{0, 1, 2, 3, 4, 5}, 2, m, unitWeight, Config{})
	for _, s := range r.Sets {
		if len(s.Events) > 2 {
			t.Fatalf("set %v exceeds capacity 2", s.Events)
		}
	}
	// C(6,1)+C(6,2) = 6+15 = 21
	if len(r.Sets) != 21 {
		t.Fatalf("got %d sets, want 21", len(r.Sets))
	}
}

func TestZeroCapacityOrNoBids(t *testing.T) {
	m := conflict.NewMatrix(3)
	if r := Enumerate([]int{0, 1}, 0, m, unitWeight, Config{}); len(r.Sets) != 0 {
		t.Error("cap 0 produced sets")
	}
	if r := Enumerate(nil, 3, m, unitWeight, Config{}); len(r.Sets) != 0 {
		t.Error("no bids produced sets")
	}
}

func TestDuplicateBidsIgnored(t *testing.T) {
	m := conflict.NewMatrix(3)
	r := Enumerate([]int{1, 1, 2, 2}, 2, m, unitWeight, Config{})
	// events {1,2}: 2 singletons + 1 pair
	if len(r.Sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(r.Sets))
	}
}

func TestWeights(t *testing.T) {
	m := conflict.NewMatrix(3)
	w := func(v int) float64 { return float64(v + 1) } // 1, 2, 3
	r := Enumerate([]int{0, 1, 2}, 3, m, w, Config{})
	for _, s := range r.Sets {
		want := 0.0
		for _, v := range s.Events {
			want += float64(v + 1)
		}
		if math.Abs(s.Weight-want) > 1e-12 {
			t.Fatalf("set %v weight %v, want %v", s.Events, s.Weight, want)
		}
	}
}

func TestMixedConflicts(t *testing.T) {
	// events 0-1 conflict; bids {0,1,2}, cap 2.
	// sets: {0},{1},{2},{0,2},{1,2} = 5
	m := conflict.NewMatrix(3)
	m.Add(0, 1)
	r := Enumerate([]int{0, 1, 2}, 2, m, unitWeight, Config{})
	if len(r.Sets) != 5 {
		t.Fatalf("got %d sets, want 5: %v", len(r.Sets), r.Sets)
	}
	for _, s := range r.Sets {
		if len(s.Events) == 2 && s.Events[0] == 0 && s.Events[1] == 1 {
			t.Fatal("conflicting pair {0,1} enumerated")
		}
	}
}

func TestTruncationKeepsSingletonsAndReports(t *testing.T) {
	m := conflict.NewMatrix(12)
	bids := make([]int, 12)
	for i := range bids {
		bids[i] = i
	}
	r := Enumerate(bids, 6, m, unitWeight, Config{MaxSetsPerUser: 10})
	if !r.Truncated {
		t.Fatal("truncation not reported")
	}
	singles := map[int]bool{}
	for _, s := range r.Sets {
		if len(s.Events) == 1 {
			singles[s.Events[0]] = true
		}
	}
	for i := 0; i < 12; i++ {
		if !singles[i] {
			t.Fatalf("singleton {%d} missing after truncation", i)
		}
	}
}

func TestUnlimitedNegativeCap(t *testing.T) {
	m := conflict.NewMatrix(10)
	bids := make([]int, 10)
	for i := range bids {
		bids[i] = i
	}
	r := Enumerate(bids, 10, m, unitWeight, Config{MaxSetsPerUser: -1})
	if r.Truncated {
		t.Fatal("unlimited enumeration reported truncation")
	}
	if len(r.Sets) != 1023 { // 2^10 - 1
		t.Fatalf("got %d sets, want 1023", len(r.Sets))
	}
}

// Property: every enumerated set is sorted, within capacity, conflict-free,
// drawn from the bids, and the collection has no duplicates. Exhaustive
// cross-check against brute force for small instances.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		nv := 2 + rng.Intn(8)
		m := conflict.Random(nv, rng.Float64(), rng)
		nbids := 1 + rng.Intn(nv)
		bidSet := map[int]bool{}
		for len(bidSet) < nbids {
			bidSet[rng.Intn(nv)] = true
		}
		var bids []int
		for v := range bidSet {
			bids = append(bids, v)
		}
		cap := 1 + rng.Intn(4)
		w := func(v int) float64 { return xrand.HashFloat(seed, 7, v) }

		r := Enumerate(bids, cap, m, w, Config{MaxSetsPerUser: -1})

		// brute force over all subsets of bids
		want := map[string]bool{}
		for mask := 1; mask < 1<<len(bids); mask++ {
			var s []int
			for i := range bids {
				if mask&(1<<i) != 0 {
					s = append(s, bids[i])
				}
			}
			if len(s) > cap {
				continue
			}
			ok := true
			for i := 0; i < len(s) && ok; i++ {
				for j := i + 1; j < len(s); j++ {
					if m.Conflicts(s[i], s[j]) {
						ok = false
						break
					}
				}
			}
			if ok {
				want[key(s)] = true
			}
		}
		got := map[string]bool{}
		for _, s := range r.Sets {
			k := key(s.Events)
			if got[k] {
				return false // duplicate
			}
			got[k] = true
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func key(s []int) string {
	b := make([]byte, 0, len(s)*2)
	// events < 128 in tests; sorted sets
	sorted := append([]int(nil), s...)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
	}
	for _, v := range sorted {
		b = append(b, byte(v), ',')
	}
	return string(b)
}

// counter is a counting sink: sets and nonzeros (one user row plus one row
// per event) of the LP columns the sets become.
type counter struct{ sets, nnz int }

func (c *counter) emit(events []int, _ float64) {
	c.sets++
	c.nnz += len(events) + 1
}

// TestWalkerCountsEnumerate checks that a counting walk reports exactly the
// sets Enumerate returns and their nonzeros, truncated walks included, and
// that a Walker reused across users emits Enumerate's sets in order.
func TestWalkerCountsEnumerate(t *testing.T) {
	rng := xrand.New(11)
	m := conflict.Random(40, 0.3, rng)
	var w Walker
	var c counter
	var got []Set
	keep := func(events []int, weight float64) {
		got = append(got, Set{Events: append([]int(nil), events...), Weight: weight})
	}
	truncatedSeen := false
	for trial := 0; trial < 200; trial++ {
		bids := rng.Perm(40)[:1+rng.Intn(14)]
		cap := 1 + rng.Intn(5)
		cfg := Config{MaxSetsPerUser: []int{-1, 0, 1, 5, 40}[trial%5]}
		weight := func(v int) float64 { return xrand.HashFloat(int64(trial), 3, v) }
		want := Enumerate(bids, cap, m, weight, cfg)
		nnz := 0
		for _, s := range want.Sets {
			nnz += len(s.Events) + 1
		}

		c = counter{}
		if tr := w.Walk(bids, cap, m, weight, cfg, c.emit); tr != want.Truncated {
			t.Fatalf("trial %d: counting walk truncated=%v, Enumerate %v", trial, tr, want.Truncated)
		}
		if c.sets != len(want.Sets) || c.nnz != nnz {
			t.Fatalf("trial %d: counted %d sets %d nonzeros, Enumerate %d sets %d nonzeros",
				trial, c.sets, c.nnz, len(want.Sets), nnz)
		}
		truncatedSeen = truncatedSeen || want.Truncated

		got = got[:0]
		w.Walk(bids, cap, m, weight, cfg, keep)
		if !reflect.DeepEqual(got, want.Sets) && !(len(got) == 0 && len(want.Sets) == 0) {
			t.Fatalf("trial %d: walk emitted %v, Enumerate %v", trial, got, want.Sets)
		}
	}
	if !truncatedSeen {
		t.Fatal("no trial truncated")
	}
}

// TestWalkerSteadyStateAllocs: once a Walker's scratch has grown, a counting
// walk allocates nothing, truncated or not.
func TestWalkerSteadyStateAllocs(t *testing.T) {
	m := conflict.Random(200, 0.3, xrand.New(3))
	bids := []int{3, 17, 42, 77, 104, 150, 180, 199, 12, 64}
	var w Walker
	var c counter
	emit := c.emit
	for _, maxSets := range []int{0, 7} {
		cfg := Config{MaxSetsPerUser: maxSets}
		w.Walk(bids, 4, m, unitWeight, cfg, emit)
		if allocs := testing.AllocsPerRun(50, func() { w.Walk(bids, 4, m, unitWeight, cfg, emit) }); allocs != 0 {
			t.Errorf("MaxSetsPerUser %d: %v allocations per counting walk, want 0", maxSets, allocs)
		}
	}
}

func BenchmarkEnumerateTypicalUser(b *testing.B) {
	rng := xrand.New(3)
	m := conflict.Random(200, 0.3, rng)
	bids := []int{3, 17, 42, 77, 104, 150, 180, 199}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Enumerate(bids, 4, m, unitWeight, Config{})
	}
}
