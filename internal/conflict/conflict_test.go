package conflict

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ebsn/igepa/internal/xrand"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5)
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Add(1, 3)
	if !m.Conflicts(1, 3) || !m.Conflicts(3, 1) {
		t.Fatal("Add not symmetric")
	}
	if m.Conflicts(1, 2) {
		t.Fatal("spurious conflict")
	}
	m.Add(2, 2) // self conflict ignored
	if m.Conflicts(2, 2) {
		t.Fatal("self conflict recorded")
	}
	if len(m.Pairs()) != 1 {
		t.Fatalf("%d pairs, want 1", len(m.Pairs()))
	}
}

func TestPairsRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	m := Random(40, 0.2, rng)
	m2 := FromPairs(40, m.Pairs())
	for v := 0; v < 40; v++ {
		for w := 0; w < 40; w++ {
			if m.Conflicts(v, w) != m2.Conflicts(v, w) {
				t.Fatalf("round trip mismatch at (%d,%d)", v, w)
			}
		}
	}
}

func TestFromFunc(t *testing.T) {
	m := FromFunc(6, func(v, w int) bool { return (v+w)%3 == 0 })
	if !m.Conflicts(1, 2) || m.Conflicts(1, 3) {
		t.Fatal("FromFunc wrong")
	}
	// Self pairs never evaluated/recorded even though (3+3)%3==0.
	if m.Conflicts(3, 3) {
		t.Fatal("self conflict recorded")
	}
}

func TestRandomRate(t *testing.T) {
	rng := xrand.New(7)
	const n, p = 150, 0.3
	m := Random(n, p, rng)
	total := n * (n - 1) / 2
	rate := float64(len(m.Pairs())) / float64(total)
	if math.Abs(rate-p) > 0.03 {
		t.Errorf("conflict rate %v, want ≈%v", rate, p)
	}
	// symmetry by construction
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if m.Conflicts(v, w) != m.Conflicts(w, v) {
				t.Fatal("asymmetric")
			}
		}
	}
}

func TestRandomExtremes(t *testing.T) {
	rng := xrand.New(9)
	if got := len(Random(20, 0, rng).Pairs()); got != 0 {
		t.Errorf("p=0 produced %d pairs", got)
	}
	if got := len(Random(20, 1, rng).Pairs()); got != 190 {
		t.Errorf("p=1 produced %d pairs, want 190", got)
	}
}

func TestFromIntervals(t *testing.T) {
	start := []int64{0, 5, 10, 10}
	end := []int64{6, 8, 20, 12}
	m := FromIntervals(start, end)
	cases := []struct {
		v, w int
		want bool
	}{
		{0, 1, true},  // [0,6) overlaps [5,8)
		{0, 2, false}, // [0,6) vs [10,20)
		{1, 2, false}, // [5,8) vs [10,20): touching at nothing
		{2, 3, true},  // [10,20) overlaps [10,12)
		{0, 3, false},
	}
	for _, tc := range cases {
		if got := m.Conflicts(tc.v, tc.w); got != tc.want {
			t.Errorf("Conflicts(%d,%d) = %v, want %v", tc.v, tc.w, got, tc.want)
		}
	}
}

func TestFromIntervalsAdjacentDoNotConflict(t *testing.T) {
	// back-to-back sessions [0,10) and [10,20) do not overlap
	m := FromIntervals([]int64{0, 10}, []int64{10, 20})
	if m.Conflicts(0, 1) {
		t.Error("adjacent intervals flagged as conflicting")
	}
}

func TestFromIntervalsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	FromIntervals([]int64{0}, []int64{1, 2})
}

// Property: Groups returns a partition into pairwise-conflicting cliques.
func TestGroupsAreCliquePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(60)
		m := Random(n, 0.05+rng.Float64()*0.9, rng)
		groups := m.Groups()
		seen := make([]bool, n)
		for _, g := range groups {
			for i, v := range g {
				if seen[v] {
					return false // not a partition
				}
				seen[v] = true
				for _, w := range g[i+1:] {
					if !m.Conflicts(v, w) {
						return false // not a clique
					}
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false // missing element
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGroupsNoConflicts(t *testing.T) {
	m := NewMatrix(4)
	groups := m.Groups()
	if len(groups) != 4 {
		t.Errorf("conflict-free events should be singleton groups, got %v", groups)
	}
}

func TestGroupsFullClique(t *testing.T) {
	m := Random(6, 1, xrand.New(1))
	groups := m.Groups()
	if len(groups) != 1 || len(groups[0]) != 6 {
		t.Errorf("complete conflict graph should be one group, got %v", groups)
	}
}

func BenchmarkRandom200(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Random(200, 0.3, rng)
	}
}
