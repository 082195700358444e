package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			got := r.Intn(n)
			if got < 0 || got >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, got)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ≈%.0f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(5)
	seenLo, seenHi := false, false
	for i := 0; i < 2000; i++ {
		got := r.IntRange(3, 7)
		if got < 3 || got > 7 {
			t.Fatalf("IntRange(3,7) = %d", got)
		}
		if got == 3 {
			seenLo = true
		}
		if got == 7 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("IntRange never hit an endpoint")
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Errorf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(9)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for n := 0; n < 30; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	z := NewZipfian(100, 1.2)
	counts := make([]int, 101)
	const draws = 50000
	for i := 0; i < draws; i++ {
		k := z.Sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("Zipf sample %d out of [1,100]", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Errorf("Zipf not decreasing: c1=%d c2=%d c10=%d", counts[1], counts[2], counts[10])
	}
}

func TestCategoricalSubDistribution(t *testing.T) {
	r := New(29)
	w := []float64{0.2, 0.3} // deficit 0.5 → -1
	counts := map[int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Categorical(w)]++
	}
	for idx, want := range map[int]float64{0: 0.2, 1: 0.3, -1: 0.5} {
		got := float64(counts[idx]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %v, want ≈%v", idx, got, want)
		}
	}
}

func TestCategoricalNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	New(1).Categorical([]float64{0.5, -0.1})
}

func TestHashFloatProperties(t *testing.T) {
	if HashFloat(1, 2, 3) != HashFloat(1, 2, 3) {
		t.Error("HashFloat not deterministic")
	}
	if HashFloat(1, 2, 3) == HashFloat(2, 2, 3) {
		t.Error("HashFloat ignores seed")
	}
	if HashFloat(1, 2, 3) == HashFloat(1, 3, 2) {
		t.Error("HashFloat symmetric in (a,b); collisions should be rare")
	}
	err := quick.Check(func(seed int64, a, b int) bool {
		f := HashFloat(seed, a, b)
		return f >= 0 && f < 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHashFloatUniform(t *testing.T) {
	var buckets [10]int
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[int(HashFloat(99, i, i*7+1)*10)]++
	}
	want := float64(n) / 10
	for i, c := range buckets {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ≈%.0f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// distinct streams of one seed must differ from each other, from other
	// seeds' streams, and from the base generator
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	c := NewStream(8, 0)
	base := New(7)
	va, vb, vc, vbase := a.Uint64(), b.Uint64(), c.Uint64(), base.Uint64()
	if va == vb || va == vc || va == vbase || vb == vc {
		t.Errorf("stream collision: %d %d %d %d", va, vb, vc, vbase)
	}
	// purely (seed, stream)-determined: a fresh construction replays exactly
	if got := NewStream(7, 0).Uint64(); got != va {
		t.Errorf("stream not reproducible: %d vs %d", got, va)
	}
}

func TestNewStreamUniformity(t *testing.T) {
	// crude uniformity check across streams: first draws should average ~0.5
	sum := 0.0
	const n = 4000
	for i := 0; i < n; i++ {
		sum += NewStream(42, uint64(i)).Float64()
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Errorf("first-draw mean across streams = %v, want ≈0.5", mean)
	}
}
