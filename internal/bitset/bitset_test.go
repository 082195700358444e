package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// Count is the popcount oracle of the tests below; production code only
// probes single bits and walks members with ForEach.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove(64) not visible")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after remove = %d, want 7", got)
	}
	s.Remove(64) // removing an absent bit is a no-op
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after double remove = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Contains(10) },
		func() { s.Remove(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range index")
				}
			}()
			fn()
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 {
		t.Fatal("empty set misbehaves")
	}
	s.ForEach(func(int) { t.Fatal("ForEach on empty set called fn") })
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 130, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

// Property: a Set behaves exactly like a map[int]bool under a random
// sequence of adds and removes.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 300
		s := New(n)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			if op%2 == 0 {
				s.Add(i)
				ref[i] = true
			} else {
				s.Remove(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
