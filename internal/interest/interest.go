// Package interest implements the interest functions SI(lv, lu) ∈ [0,1]
// (Definition 5) used by the experiments: hashed uniform values (synthetic
// datasets, "interest values of users in events are uniformly sampled") and
// cosine similarity over attribute vectors (the Meetup-like dataset computes
// interests from attributes as in GEACC).
//
// All constructors return plain func(u, v int) float64 values, assignable to
// model.InterestFunc.
package interest

import (
	"math"

	"github.com/ebsn/igepa/internal/xrand"
)

// Hashed returns an interest function whose values are deterministic
// pseudo-uniform draws from [0,1) keyed by (seed, u, v). It behaves like an
// i.i.d. uniform interest table without materializing |U|×|V| floats.
func Hashed(seed int64) func(u, v int) float64 {
	return func(u, v int) float64 {
		return xrand.HashFloat(seed, u, v)
	}
}

// Cosine returns SI(u,v) = cos(lu, lv) clamped to [0,1], where lu and lv are
// the users' and events' attribute vectors. Vectors of unequal length are
// compared over their common prefix; zero vectors yield 0.
func Cosine(userAttrs, eventAttrs [][]float64) func(u, v int) float64 {
	return func(u, v int) float64 {
		return CosineSim(userAttrs[u], eventAttrs[v])
	}
}

// CosineSim computes the cosine similarity of two vectors clamped to [0,1].
func CosineSim(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Guard against overflow on extreme inputs (Inf/Inf → NaN): an interest
	// must always be a valid value in [0,1].
	if math.IsNaN(c) || c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}
