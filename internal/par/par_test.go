package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100, 1023} {
			hits := make([]int32, n)
			For(workers, n, 8, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRangesChunksAreDisjointAndComplete(t *testing.T) {
	const n = 10007
	for _, workers := range []int{1, 3, 4, 8} {
		var total atomic.Int64
		hits := make([]int32, n)
		Ranges(workers, n, 64, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("workers=%d: bad chunk [%d,%d)", workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			total.Add(int64(hi - lo))
		})
		if total.Load() != n {
			t.Fatalf("workers=%d: covered %d of %d iterations", workers, total.Load(), n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	Ranges(4, 0, 1, func(lo, hi int) { t.Error("empty range must not run") })
	Ranges(4, -6, 1, func(lo, hi int) { t.Error("negative range must not run") })
}

func TestRangesInlineForSmallInputs(t *testing.T) {
	// a single chunk must run inline (no goroutines): verified by writing to
	// a captured variable without synchronization under the race detector.
	sum := 0
	Ranges(8, 10, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("auto worker count must be at least 1")
	}
}

func TestDeterministicResultAcrossWorkerCounts(t *testing.T) {
	// iteration-owned writes: identical output for every worker count.
	const n = 5000
	ref := make([]float64, n)
	For(1, n, 16, func(i int) { ref[i] = float64(i) * 1.000001 })
	for _, workers := range []int{2, 3, 8} {
		got := make([]float64, n)
		For(workers, n, 16, func(i int) { got[i] = float64(i) * 1.000001 })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d differs", workers, i)
			}
		}
	}
}
