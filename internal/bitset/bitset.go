// Package bitset implements a dense, fixed-capacity bitset.
//
// Bitsets back the two hot data structures of the reproduction: conflict
// rows (is event v in conflict with event v'?) and social adjacency rows.
// Admissible-set enumeration probes conflict rows millions of times, so the
// representation is a flat []uint64 with no indirection.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset over [0, n). The zero value is an empty set
// of capacity 0; use New for a set with room for n bits.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty Set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity n the set was created with.
func (s *Set) Len() int { return s.n }

// Add sets bit i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set. It panics if i is out of range.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}
