// Package xrand provides a small, deterministic pseudo-random number
// generator and the sampling distributions used throughout the IGEPA
// reproduction.
//
// The generator is xoshiro256** seeded through splitmix64. It is implemented
// here rather than taken from math/rand so that experiment outputs are
// bit-for-bit reproducible across Go releases: recorded experiment numbers
// depend only on the seed, never on the standard library's generator of the
// day.
//
// The zero value of RNG is not usable; construct one with New.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** with splitmix64 seeding). It is not safe for concurrent use;
// give each goroutine its own RNG (see NewStream).
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed. Distinct seeds yield independent
// streams for every practical purpose; seed 0 is valid.
func New(seed int64) *RNG {
	r := &RNG{}
	sm := uint64(seed)
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// NewStream returns the RNG for sub-stream `stream` of the given seed. The
// streams of one seed are statistically independent of each other and of
// New(seed), and depend only on (seed, stream), never on shared state. That
// makes them the right tool for parallel per-item randomness: each item i draws from NewStream(seed, i), so results are
// bit-identical no matter how items are distributed over workers.
func NewStream(seed int64, stream uint64) *RNG {
	z := stream + 0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(seed ^ int64(z^(z>>31)))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipfian samples from a Zipf distribution over [1, n] with exponent s.
type Zipfian struct {
	cum []float64 // cumulative probabilities, len n
}

// NewZipfian builds the cumulative table for a Zipf(n, s) distribution.
// It panics if n <= 0.
func NewZipfian(n int, s float64) *Zipfian {
	if n <= 0 {
		panic("xrand: Zipfian with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against round-off
	return &Zipfian{cum: cum}
}

// Sample draws one value in [1, n].
func (z *Zipfian) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Categorical samples an index i with probability weights[i]/Σweights, or
// returns -1 with the deficit probability 1−Σweights (the weights need not
// sum to one; they must be non-negative and sum to at most 1+1e-9).
// This is exactly the sub-distribution sampling used by LP-packing's
// rounding step (sample set S with probability α·x*_{u,S}, nothing
// otherwise).
func (r *RNG) Categorical(weights []float64) int {
	u := r.Float64()
	acc := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("xrand: Categorical with negative weight")
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return -1
}

// Hash64 returns 64 deterministic pseudo-uniform bits derived from
// (seed, a, b) via splitmix64 finalization. It is the stateless counterpart
// of NewStream: the right tool when a single well-mixed value per item is
// needed rather than a whole stream — the sharded serving layer hashes users
// to shards with it, so the partition depends only on (seed, user), never on
// arrival order or worker scheduling.
func Hash64(seed int64, a, b int) uint64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z ^= uint64(a)*0xff51afd7ed558ccd + uint64(b)*0xc4ceb9fe1a85ec53
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashFloat returns a deterministic pseudo-uniform value in [0,1) derived
// from (seed, a, b) via splitmix64 finalization. It is used for implicit
// interest tables: SI(u, v) can be evaluated lazily without materializing a
// |U|×|V| matrix, yet is stable for a given seed.
func HashFloat(seed int64, a, b int) float64 {
	return float64(Hash64(seed, a, b)>>11) * (1.0 / (1 << 53))
}
