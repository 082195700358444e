// Package par provides the bounded worker pool used by the embarrassingly
// parallel per-user and per-column stages of the arrangement pipeline:
// admissible-set enumeration, LP-rounding sampling, weight-table
// construction and simplex pricing updates.
//
// Determinism contract: callers pass loop bodies whose iterations are
// mutually independent and write only to iteration-owned slots (sets[i],
// rvec[j], ...). Under that contract the results are bit-identical for every
// worker count, so "parallel" never means "nondeterministic" anywhere in
// this repository — the property the end-to-end GOMAXPROCS invariance tests
// pin down.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n > 0 is taken literally, anything
// else means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Ranges splits [0, n) into contiguous chunks of at least grain iterations
// and runs fn(lo, hi) on them from a pool of at most workers goroutines.
// Chunks are handed out dynamically (atomic cursor), so partitioning — but
// never the per-iteration arithmetic — depends on scheduling. With
// workers <= 1, or when n fits a single chunk, fn runs inline on the calling
// goroutine: small inputs pay zero synchronization.
func Ranges(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers = Workers(workers)
	if workers > n/grain {
		workers = n / grain
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// For runs fn(i) for every i in [0, n) on the bounded pool, chunked by
// grain. It is Ranges with a per-iteration body.
func For(workers, n, grain int, fn func(i int)) {
	Ranges(workers, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs fn(i) for every i in [0, n) with one task per index — For with
// grain 1, named for the "fixed set of heterogeneous tasks" reading: the
// sharded serving layer runs one shard per index, each a long-lived planner
// over its own batch slice. The determinism contract is the same: bodies
// must be independent and write only index-owned state.
func Do(workers, n int, fn func(i int)) {
	For(workers, n, 1, fn)
}
