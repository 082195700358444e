// Package stats provides the small summary-statistics toolkit used by the
// experiment harness and the latency reports: means, standard deviations
// and extremes over repeated randomized runs, and duration percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation (n-1)
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String formats the summary as "mean ± std (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean, s.Std, s.N)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// DurationPercentiles returns the q-quantiles of the samples by the
// nearest-rank rule index = floor(q·(n−1)) over a sorted copy — the one
// quantile rule shared by every latency report in the tree (serving
// metrics, replay sweeps, load generation). Empty input yields zeros; qs
// outside [0,1] are clamped.
func DurationPercentiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		out[i] = sorted[int(q*float64(len(sorted)-1))]
	}
	return out
}
