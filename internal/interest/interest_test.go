package interest

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashedDeterministicAndBounded(t *testing.T) {
	f := Hashed(42)
	if f(1, 2) != f(1, 2) {
		t.Fatal("not deterministic")
	}
	if f(1, 2) == Hashed(43)(1, 2) {
		t.Fatal("seed ignored")
	}
	for u := 0; u < 50; u++ {
		for v := 0; v < 50; v++ {
			x := f(u, v)
			if x < 0 || x >= 1 {
				t.Fatalf("SI(%d,%d) = %v outside [0,1)", u, v, x)
			}
		}
	}
}

func TestHashedMean(t *testing.T) {
	f := Hashed(7)
	sum := 0.0
	const n = 200
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			sum += f(u, v)
		}
	}
	if mean := sum / (n * n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestCosineSim(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 1}, []float64{1, 0}, 1 / math.Sqrt2},
		{[]float64{0, 0}, []float64{1, 0}, 0},  // zero vector
		{[]float64{1, 0}, []float64{-1, 0}, 0}, // negative clamped
		{[]float64{3, 4}, []float64{3, 4}, 1},  // scale invariant
		{[]float64{1, 2, 3}, []float64{1, 2}, CosineSim([]float64{1, 2, 3}, []float64{1, 2})},
	}
	for _, tc := range cases {
		got := CosineSim(tc.a, tc.b)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CosineSim(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCosineSimSymmetricAndBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		x, y := CosineSim(a, b), CosineSim(b, a)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCosineClosure(t *testing.T) {
	users := [][]float64{{1, 0}, {0, 1}}
	events := [][]float64{{1, 0}}
	c := Cosine(users, events)
	if got := c(0, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine closure (0,0) = %v", got)
	}
	if got := c(1, 0); got != 0 {
		t.Errorf("Cosine closure (1,0) = %v", got)
	}
}
