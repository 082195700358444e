package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// sample std with n-1: variance = 32/7
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 {
		t.Errorf("singleton summary: %+v", s)
	}
	neg := Summarize([]float64{-5, -1})
	if neg.Min != -5 || neg.Max != -1 || neg.Mean != -3 {
		t.Errorf("negative summary: %+v", neg)
	}
}

func TestString(t *testing.T) {
	got := Summarize([]float64{1, 3}).String()
	if !strings.Contains(got, "2.00") || !strings.Contains(got, "n=2") {
		t.Errorf("String = %q", got)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean broken")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestDurationPercentiles(t *testing.T) {
	if ps := DurationPercentiles(nil, 0.5, 0.99); ps[0] != 0 || ps[1] != 0 {
		t.Fatalf("empty input: %v", ps)
	}
	samples := []time.Duration{5, 1, 4, 2, 3} // sorted: 1..5
	ps := DurationPercentiles(samples, 0, 0.5, 1, -0.2, 1.7)
	want := []time.Duration{1, 3, 5, 1, 5}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("quantile %d: got %v want %v (all %v)", i, ps[i], want[i], ps)
		}
	}
	if samples[0] != 5 {
		t.Fatal("input mutated: must sort a copy")
	}
}
