package admissible

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/xrand"
)

// firstStrictMax returns the first set of r, in enumeration order, that is
// strictly heavier under weigh than all before it (and than 0): the selection
// the online planners ran over a whole enumeration before Searcher existed.
func firstStrictMax(r Result, weigh func(Set) float64) []int {
	bestW := 0.0
	var best []int
	for _, s := range r.Sets {
		if w := weigh(s); w > bestW {
			bestW = w
			best = s.Events
		}
	}
	return best
}

// enumerated weighs a set as Enumerate reported it: the running sum of the
// whole DFS so far, drift included.
func enumerated(s Set) float64 { return s.Weight }

// alone weighs a set by itself, heaviest event first and ties by event id:
// the order the DFS adds them in. It is the search's specification.
func alone(w func(int) float64) func(Set) float64 {
	return func(s Set) float64 {
		events := slices.Clone(s.Events)
		slices.SortStableFunc(events, func(a, b int) int { return cmp.Compare(w(b), w(a)) })
		total := 0.0
		for _, v := range events {
			total += w(v)
		}
		return total
	}
}

// weightModes are the weight shapes the differential runs over: continuous,
// a few decimal levels (exact ties, zeros, and sums that round), all tied,
// all zero, mixed signs.
var weightModes = []func(seed int64, v int) float64{
	func(seed int64, v int) float64 { return xrand.HashFloat(seed, 7, v) },
	func(seed int64, v int) float64 { return float64(xrand.Hash64(seed, 7, v)%4) / 10 },
	func(int64, int) float64 { return 0.1 },
	func(int64, int) float64 { return 0 },
	func(seed int64, v int) float64 { return xrand.HashFloat(seed, 7, v) - 0.3 },
}

// checkBest runs one generated case: random bids (unsorted, with
// duplicates), a random conflict matrix of the given density, and one of
// weightModes. Unlimited, Best must name exactly the first strict maximum of
// Enumerate's sets weighed alone, and the one by Set.Weight too unless the
// two tie to within rounding; under a small node budget its answer must be
// admissible and no lighter than the truncated enumeration's.
func checkBest(t *testing.T, s *Searcher, seed int64, nv, cap, density, mode, budget int) {
	t.Helper()
	nv = 1 + nv%14
	cap %= 9
	budget = 1 + budget%64
	rng := xrand.New(seed)
	m := conflict.Random(nv, float64(density%256)/255, rng)
	bids := make([]int, rng.Intn(2*nv+1))
	for i := range bids {
		bids[i] = rng.Intn(nv)
	}
	wf := weightModes[mode%len(weightModes)]
	w := func(v int) float64 { return wf(seed, v) }
	weigh := alone(w)
	sum := func(set []int) float64 { return weigh(Set{Events: set}) }

	all := Enumerate(bids, cap, m, w, Config{MaxSetsPerUser: -1})
	got := s.Best(bids, cap, m, w, Config{MaxSetsPerUser: -1})
	if want := firstStrictMax(all, weigh); !slices.Equal(got, want) {
		t.Fatalf("seed=%d nv=%d cap=%d density=%d mode=%d bids=%v: Best = %v, first strict maximum of the enumeration = %v",
			seed, nv, cap, density, mode, bids, got, want)
	}
	if want := firstStrictMax(all, enumerated); !slices.Equal(got, want) && math.Abs(sum(got)-sum(want)) > 1e-12*sum(want) {
		t.Fatalf("seed=%d nv=%d cap=%d density=%d mode=%d bids=%v: Best = %v weighs %v, first strict maximum of Set.Weight = %v weighs %v",
			seed, nv, cap, density, mode, bids, got, sum(got), want, sum(want))
	}

	floor := sum(firstStrictMax(Enumerate(bids, cap, m, w, Config{MaxSetsPerUser: budget}), enumerated))
	got = s.Best(bids, cap, m, w, Config{MaxSetsPerUser: budget})
	if len(got) > cap {
		t.Fatalf("budget %d: %v exceeds capacity %d", budget, got, cap)
	}
	for i, v := range got {
		if !slices.Contains(bids, v) {
			t.Fatalf("budget %d: event %d of %v is not a bid (%v)", budget, v, got, bids)
		}
		if i > 0 && got[i-1] >= v {
			t.Fatalf("budget %d: %v is not strictly ascending", budget, got)
		}
		for _, x := range got[:i] {
			if m.Conflicts(x, v) {
				t.Fatalf("budget %d: %v holds the conflicting pair (%d,%d)", budget, got, x, v)
			}
		}
	}
	if have := sum(got); have < floor*(1-1e-9) {
		t.Fatalf("seed=%d nv=%d cap=%d density=%d mode=%d budget=%d: Best weighs %v, the truncated enumeration's choice %v",
			seed, nv, cap, density, mode, budget, have, floor)
	}
}

func FuzzBestMatchesEnumerate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(60), uint8(0), uint8(5))
	f.Add(int64(2), uint8(13), uint8(8), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint8(13), uint8(4), uint8(20), uint8(2), uint8(40))
	f.Add(int64(4), uint8(5), uint8(0), uint8(255), uint8(3), uint8(2))
	f.Add(int64(5), uint8(12), uint8(5), uint8(40), uint8(4), uint8(9))
	var s Searcher
	f.Fuzz(func(t *testing.T, seed int64, nv, cap, density, mode, budget uint8) {
		checkBest(t, &s, seed, int(nv), int(cap), int(density), int(mode), int(budget))
	})
}

// TestBestMatchesEnumerateSweep is the fuzz target over a fixed grid, so the
// differential runs under plain `go test` too; one Searcher serves every
// case, which also checks that no state leaks from one search to the next.
func TestBestMatchesEnumerateSweep(t *testing.T) {
	var s Searcher
	rng := xrand.New(99)
	for i := 0; i < 6000; i++ {
		checkBest(t, &s, int64(i), rng.Intn(256), rng.Intn(256), rng.Intn(256), i, rng.Intn(256))
	}
}

func TestBestEdgeCases(t *testing.T) {
	free := conflict.NewMatrix(6)
	full := conflict.FromFunc(6, func(v, w int) bool { return true })
	byID := func(v int) float64 { return float64(v + 1) }
	tests := []struct {
		name   string
		bids   []int
		cap    int
		m      *conflict.Matrix
		weight func(int) float64
		want   []int
	}{
		{"no bids", nil, 3, free, byID, nil},
		{"cap 0", []int{0, 1, 2}, 0, free, byID, nil},
		{"negative cap", []int{0, 1, 2}, -1, free, byID, nil},
		{"all conflicting: heaviest singleton", []int{0, 1, 2, 3}, 4, full, byID, []int{3}},
		{"all tied: first chain in event order", []int{4, 2, 0, 5, 1}, 2, free, unitWeight, []int{0, 1}},
		{"all tied, all conflicting: lowest event", []int{4, 2, 5}, 3, full, unitWeight, []int{2}},
		{"all zero: nothing is strictly better than nothing", []int{0, 1, 2}, 2, free, func(int) float64 { return 0 }, nil},
		{"duplicates count once", []int{1, 1, 3, 3, 3}, 3, free, byID, []int{1, 3}},
		{"cap above the bid count", []int{5, 0}, 8, free, byID, []int{0, 5}},
		{"heaviest pair loses to a lighter triple", []int{0, 1, 2, 3}, 3,
			conflict.FromPairs(6, [][2]int{{3, 0}, {3, 1}}), func(v int) float64 { return []float64{2, 2, 2.5, 3}[v] },
			[]int{0, 1, 2}},
	}
	var s Searcher
	for _, tc := range tests {
		got := s.Best(tc.bids, tc.cap, tc.m, tc.weight, Config{})
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Best = %v, want %v", tc.name, got, tc.want)
		}
		if want := firstStrictMax(Enumerate(tc.bids, tc.cap, tc.m, tc.weight, Config{}), enumerated); !slices.Equal(got, want) {
			t.Errorf("%s: Best = %v, Enumerate's first strict maximum = %v", tc.name, got, want)
		}
	}
}

// TestBestGuardRail is the adversarial input MaxSetsPerUser exists for: 60
// tied bids in 6 time slots of 10 mutually conflicting events, capacity 10.
// No set holds more than 6 events while the bound still hopes for 10, so
// nothing is pruned and an unguarded search would visit all 11^6-1 sets. The
// default budget must end it in milliseconds with an admissible answer.
func TestBestGuardRail(t *testing.T) {
	const nv = 60
	m := conflict.FromFunc(nv, func(v, w int) bool { return v%6 == w%6 })
	bids := make([]int, nv)
	for i := range bids {
		bids[i] = i
	}
	var s Searcher
	start := time.Now()
	got := s.Best(bids, 10, m, unitWeight, Config{})
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("guarded search took %v", d)
	}
	if s.nodes != DefaultMaxSetsPerUser {
		t.Errorf("visited %d nodes, want the default budget %d", s.nodes, DefaultMaxSetsPerUser)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("Best = %v, want the first full chain %v", got, want)
	}
}
