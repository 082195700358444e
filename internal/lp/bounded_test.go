package lp

import (
	"fmt"
	"sort"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// PricingReport is what a CheckPricing check saw.
type PricingReport struct {
	// PlainVars counts the variables the reference scans of the pivot
	// loop's own calls read; Calls counts those calls, CachedCalls the ones
	// the reduced-cost cache served, and ColdCachedCalls those of them made
	// by cold solves.
	PlainVars                           int64
	Calls, CachedCalls, ColdCachedCalls int
	// UncachedCalls counts the calls the plain or the bounded scan served;
	// UncachedRead and UncachedSkipped sum what those calls read and
	// skipped, and UncachedPlainVars what their reference scans read.
	UncachedCalls                                    int
	UncachedRead, UncachedSkipped, UncachedPlainVars int64
	// TombstoneWindows counts the cached calls whose window was shorter
	// than the pass and held a tombstone, so the window's end had to be
	// found by counting past it. Probes counts the extra random-cursor,
	// random-window calls checked beside the loop's own.
	TombstoneWindows, Probes int
	// Err is the first call or probe whose (q, next), or whose count of
	// variables read and skipped, differed from the plain scan's.
	Err error
}

// CheckPricing installs the plain scan as the reference of every partial
// Dantzig pricing call the pivot loop makes until the returned function is
// called: it reruns each call as a plain scan, which computes every reduced
// cost from the duals and reads neither block bounds nor the reduced-cost
// cache, and records the first call whose (q, next) differs. A call the
// cache served, warm or cold, is also rerun from the cache, whose
// PricedVars + SkippedVars must equal the plain scan's PricedVars. With a
// non-nil rng, each call the bounded or the cached scan served also prices
// from random cursors with random windows against the same duals, through
// the scan that served it and as the plain scan: bounded on a cold solve
// with block summaries; cached with cursors that include 0, the end of the
// pass and the slots on and just after a tombstone, and windows that
// include 1, 63, 64, 65, the live count, one more, and past the pass. A
// plain call gets no probe, so a cache the plain scan leaves stale stays
// stale until the rule picks it again. The returned function uninstalls
// the check and reports what it saw. Tests that use it must not run in
// parallel.
func CheckPricing(rng *xrand.RNG) func() PricingReport {
	var rep PricingReport
	fail := func(format string, args ...any) {
		if rep.Err == nil {
			rep.Err = fmt.Errorf(format, args...)
		}
	}
	pricingHook = func(st *revisedState, bounds *priceBounds, scan scanKind, warm bool, cursor, window, q, next int) {
		rep.Calls++
		if rep.Err != nil {
			return
		}
		read, skipped := st.lastRead, st.lastSkipped
		tm := st.timers
		defer func() { st.timers = tm }()
		var ref PhaseTimers
		st.timers = &ref
		if wq, wn := st.pricePartial(cursor, window, false, nil); wq != q || wn != next {
			fail("call %d: from %d with window %d: scan (%d, %d), plain scan (%d, %d)",
				rep.Calls, cursor, window, q, next, wq, wn)
			return
		}
		rep.PlainVars += ref.PricedVars
		if scan == scanCached {
			rep.CachedCalls++
			if !warm {
				rep.ColdCachedCalls++
			}
			if window < st.live()+st.m && tombstoneInWindow(st, cursor, window) {
				rep.TombstoneWindows++
			}
			checkCached(st, rep.Calls, "", cursor, window, fail)
		} else {
			rep.UncachedCalls++
			rep.UncachedRead += int64(read)
			rep.UncachedSkipped += int64(skipped)
			rep.UncachedPlainVars += ref.PricedVars
		}
		if rng == nil || scan == scanPlain {
			return
		}
		rep.Probes++
		st.timers = nil
		total := st.n + st.m
		if scan == scanCached {
			c, w := cachedProbe(st, rng)
			checkCached(st, rep.Calls, " probe", c, w, fail)
			return
		}
		c := rng.Intn(total)
		switch rng.Intn(3) {
		case 0: // a block's first variable
			c -= c % boundBlock
		case 1: // near the end of the pass
			c = max(0, total-1-rng.Intn(3))
		}
		windows := []int{1, boundBlock - 1, boundBlock, boundBlock + 1, 3 * boundBlock, total, total + 1}
		w := 1 + rng.Intn(2*total)
		if rng.Bool(0.5) {
			w = windows[rng.Intn(len(windows))]
		}
		gq, gn := st.pricePartial(c, w, false, bounds)
		if wq, wn := st.pricePartial(c, w, false, nil); gq != wq || gn != wn {
			fail("call %d probe: from %d with window %d: bounded scan (%d, %d), plain scan (%d, %d)",
				rep.Calls, c, w, gq, gn, wq, wn)
		}
	}
	return func() PricingReport {
		pricingHook = nil
		return rep
	}
}

// checkCached prices from cursor c with window w twice, from the
// reduced-cost cache and as the plain scan, and reports through fail a
// differing (q, next) or a cached scan whose variables read and skipped do
// not add up to what the plain scan read. It leaves st.timers nil.
func checkCached(st *revisedState, call int, what string, c, w int, fail func(string, ...any)) {
	var cached, plain PhaseTimers
	st.timers = &cached
	gq, gn := st.pricePartial(c, w, true, nil)
	st.timers = &plain
	wq, wn := st.pricePartial(c, w, false, nil)
	st.timers = nil
	switch {
	case gq != wq || gn != wn:
		fail("call %d%s: from %d with window %d: cached scan (%d, %d), plain scan (%d, %d)",
			call, what, c, w, gq, gn, wq, wn)
	case cached.PricedVars+cached.SkippedVars != plain.PricedVars:
		fail("call %d%s: from %d with window %d: cached scan read %d and skipped %d variables, plain scan read %d",
			call, what, c, w, cached.PricedVars, cached.SkippedVars, plain.PricedVars)
	}
}

// cachedProbe draws a cursor and a window for a cached probe on st.
func cachedProbe(st *revisedState, rng *xrand.RNG) (c, w int) {
	total := st.n + st.m
	live := total - st.dead
	c = rng.Intn(total)
	switch rng.Intn(4) {
	case 0:
		c = 0
	case 1: // near the end of the pass
		c = max(0, total-1-rng.Intn(3))
	case 2, 3: // on a tombstone, or just after one
		if st.dead > 0 {
			for st.posOf[c] != deadSlot {
				c = (c + 1) % total
			}
			if rng.Bool(0.5) {
				c = (c + 1) % total
			}
		}
	}
	windows := []int{1, 63, 64, 65, live, live + 1, total + 1}
	w = 1 + rng.Intn(2*total)
	if rng.Bool(0.6) {
		w = windows[rng.Intn(len(windows))]
	}
	return c, w
}

// tombstoneInWindow reports whether a tombstone lies among the slots a scan
// from cursor passes before it has counted window live variables.
func tombstoneInWindow(st *revisedState, cursor, window int) bool {
	total := st.n + st.m
	crossed := false
	for i, seen := cursor, 0; seen < window; i = (i + 1) % total {
		if st.posOf[i] == deadSlot {
			crossed = true
		} else {
			seen++
		}
	}
	return crossed
}

// blockedPacking builds a random packing LP whose columns come in owner
// runs, as the benchmark LP's do: each owner has its own ≤1 row, and each of
// its columns crosses a few of k event rows, listed ascending after the
// owner's row. With probability long an owner gets a long run of long
// columns over few events, whose blocks keep a bound; the others get one to
// three short columns, and blocks of many such owners fail the shape rule.
// Runs straddle block boundaries freely, and n+m is rarely a multiple of
// boundBlock. Objective scales vary by owner over five decades.
func blockedPacking(rng *xrand.RNG, long float64) *Problem {
	k := 2 + rng.Intn(24)
	target := 200 + rng.Intn(3000)
	var owners [][][]int // per owner: its columns' event indices
	for cols := 0; cols < target; {
		var run [][]int
		if rng.Bool(long) {
			span := 2 + rng.Intn(min(k, 10)-1) // the run's events: [first, first+span)
			first := rng.Intn(k - span + 1)
			nc := 20 + rng.Intn(400)
			for c := 0; c < nc; c++ {
				run = append(run, pickEvents(rng, first, span, 1+rng.Intn(span)))
			}
		} else {
			for c := 1 + rng.Intn(3); c > 0; c-- {
				run = append(run, pickEvents(rng, 0, k, 1+rng.Intn(2)))
			}
		}
		owners = append(owners, run)
		cols += len(run)
	}
	g := len(owners)
	p := &Problem{NumRows: g + k, B: make([]float64, g+k)}
	for i := 0; i < g; i++ {
		p.B[i] = 1
	}
	for e := 0; e < k; e++ {
		p.B[g+e] = float64(1 + rng.Intn(6))
	}
	rows := make([]int, 0, k+1)
	for u, run := range owners {
		scale := float64(1)
		for d := rng.Intn(5); d > 0; d-- {
			scale *= 10
		}
		scale /= 100
		for _, evs := range run {
			rows = append(rows[:0], u)
			for _, e := range evs {
				rows = append(rows, g+e)
			}
			p.AddColumn(scale*rng.Float64(), rows)
		}
	}
	return p
}

// pickEvents draws up to want distinct events from [first, first+span),
// ascending.
func pickEvents(rng *xrand.RNG, first, span, want int) []int {
	seen := map[int]bool{}
	var evs []int
	for t := 0; t < want; t++ {
		if e := first + rng.Intn(span); !seen[e] {
			seen[e] = true
			evs = append(evs, e)
		}
	}
	sort.Ints(evs)
	return evs
}

// FuzzBoundedPricing runs full cold solves of random owner-run packing LPs
// (blockedPacking) and requires every partial Dantzig pricing call, and a
// random-cursor, random-window probe beside each, to return the plain scan's
// (q, next) (CheckPricing). Windows range from one variable to past the
// whole pass; refactorization cadences and the perturbation vary.
func FuzzBoundedPricing(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(-9), uint8(2))
	f.Add(int64(33), uint8(3))
	f.Add(int64(128), uint8(4))
	f.Add(int64(77), uint8(5))
	// a refactorization every 8 pivots, and a last pass on updated duals
	// that moved, so the recertifying second pass runs under the check
	f.Add(int64(12), uint8(6))
	f.Add(int64(18), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		rng := xrand.New(seed)
		p := blockedPacking(rng, []float64{0, 0.3, 0.7, 1}[knobs%4])
		windows := []int{0, 1, boundBlock - 1, boundBlock, boundBlock + 1, 200, 1 + rng.Intn(2*(p.NumCols()+p.NumRows))}
		cfg := Revised{tuning: tuning{
			pricing:       pricingDantzig,
			pricingWindow: windows[int(knobs/4)%len(windows)],
			refactorEvery: []int{0, 8, 33}[rng.Intn(3)],
			noPerturb:     rng.Bool(0.25),
		}}
		done := CheckPricing(xrand.New(seed ^ 0x0b0d))
		sol, err := SolveConfig(p, cfg)
		rep := done()
		if rep.Err != nil {
			t.Fatalf("n=%d m=%d window=%d: %v", p.NumCols(), p.NumRows, cfg.tuning.pricingWindow, rep.Err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rep.Calls == 0 {
			t.Fatal("no pricing call was checked")
		}
		if err := Verify(p, sol, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBoundedPricingSkips guards FuzzBoundedPricing against testing nothing:
// on LPs made only of long owner runs the bound must skip variables, and the
// reference scans must read exactly what the bounded scans read or skipped.
func TestBoundedPricingSkips(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := blockedPacking(xrand.New(seed), 1)
		var tm PhaseTimers
		done := CheckPricing(nil)
		_, err := SolveConfig(p, Revised{Timers: &tm})
		rep := done()
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		plain := rep.PlainVars
		if err != nil {
			t.Fatal(err)
		}
		if tm.SkippedVars == 0 {
			t.Errorf("seed %d (n=%d m=%d): no variable skipped", seed, p.NumCols(), p.NumRows)
		}
		if tm.PricedVars+tm.SkippedVars != plain {
			t.Errorf("seed %d: priced %d + skipped %d != plain %d", seed, tm.PricedVars, tm.SkippedVars, plain)
		}
		t.Logf("seed %d: n=%d m=%d skip share %.3f", seed, p.NumCols(), p.NumRows,
			float64(tm.SkippedVars)/float64(plain))
	}
}

// TestBoundedPricingNoColumns solves a problem with rows but no columns:
// the cold Dantzig solve must not build block summaries over an empty
// column array.
func TestBoundedPricingNoColumns(t *testing.T) {
	p := &Problem{NumRows: 2, B: []float64{1, 3}}
	sol, err := SolveConfig(p, Revised{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 || sol.Iterations != 0 {
		t.Fatalf("got status %v, objective %v, %d pivots; want optimal 0 in 0", sol.Status, sol.Objective, sol.Iterations)
	}
}

// TestPricingCountersAllocateNothing checks that the partial Dantzig scan,
// plain, bounded and from the candidate index, counts PricedVars,
// SkippedVars, the call under its scan's call counter and, for the plain and
// cached scans, ScanWork into attached phase timers without allocating; that
// the reduced-cost cache counts MovedRows, RecomputedCols and SyncWork and
// times its Sync phase without allocating either; that Bland's scan counts
// ScanWork without allocating; and that a BTRAN skipped on exact duals
// counts SkippedBtrans without allocating.
func TestPricingCountersAllocateNothing(t *testing.T) {
	p := blockedPacking(xrand.New(3), 1)
	st := newRevisedState(p, true)
	if err := st.refactorize(); err != nil {
		t.Fatal(err)
	}
	st.btran()
	bounds := newPriceBounds(st)
	if bounds == nil {
		t.Fatal("no block kept a bound")
	}
	var tm PhaseTimers
	st.timers = &tm
	total := st.n + st.m
	for _, pb := range []*priceBounds{nil, bounds} {
		before, work := tm.PricedVars+tm.SkippedVars, tm.ScanWork
		calls := 0
		if allocs := testing.AllocsPerRun(20, func() {
			st.pricePartial(0, total, false, pb)
			calls++
		}); allocs != 0 {
			t.Errorf("bounded=%v: %v allocations per pricing call", pb != nil, allocs)
		}
		if tm.PricedVars+tm.SkippedVars == before {
			t.Errorf("bounded=%v: pricing counted no variable", pb != nil)
		}
		served, wantWork := tm.PlainScans, int64(calls*total) // a plain full pass reads every variable
		if pb != nil {
			served, wantWork = tm.BoundedScans, 0
		}
		if served != int64(calls) || tm.ScanWork-work != wantWork {
			t.Errorf("bounded=%v: %d calls counted %d served and %d scan work, want %d and %d",
				pb != nil, calls, served, tm.ScanWork-work, calls, wantWork)
		}
	}

	st.syncRed() // a full pass: the cache becomes valid
	if tm.MovedRows != int64(st.m) || tm.RecomputedCols != int64(total) || tm.SyncWork != int64(total) {
		t.Errorf("full sync counted %d rows, %d variables and %d work, want %d, %d and %d",
			tm.MovedRows, tm.RecomputedCols, tm.SyncWork, st.m, total, total)
	}
	tm.MovedRows, tm.RecomputedCols, tm.SyncWork = 0, 0, 0
	st.buildARows()
	k, wantWork := 0, int64(0)
	if allocs := testing.AllocsPerRun(20, func() {
		st.y[k%st.m] += 0.5
		wantWork += int64(st.rowLen(k%st.m) + 1)
		k++
		st.syncRed()
	}); allocs != 0 {
		t.Errorf("%v allocations per reduced-cost sync", allocs)
	}
	if tm.MovedRows != int64(k) || tm.RecomputedCols <= tm.MovedRows || tm.SyncWork != wantWork {
		t.Errorf("%d syncs of one moved row counted %d rows, %d variables and %d work, want %d work",
			k, tm.MovedRows, tm.RecomputedCols, tm.SyncWork, wantWork)
	}
	for _, cached := range []bool{false, true} {
		work := tm.ScanWork
		if allocs := testing.AllocsPerRun(20, func() { st.priceBland(cached) }); allocs != 0 {
			t.Errorf("cached=%v: %v allocations per Bland scan", cached, allocs)
		}
		if tm.ScanWork == work {
			t.Errorf("cached=%v: Bland's scan counted no work", cached)
		}
	}

	// The index path: exact duals again, a synced cache, then warm scans.
	tm = PhaseTimers{}
	st.yExact = false // the loop above moved y behind btran's back
	st.btran()
	st.syncRed()
	if tm.Sync <= 0 || tm.Pricing != 0 {
		t.Errorf("a sync timed %v as Sync and %v as Pricing, want some Sync and no Pricing", tm.Sync, tm.Pricing)
	}
	for _, w := range []int{64, total} {
		priced, skipped, served, work := tm.PricedVars, tm.SkippedVars, tm.CachedScans, tm.ScanWork
		calls := 0
		if allocs := testing.AllocsPerRun(20, func() {
			st.pricePartial(0, w, true, nil)
			calls++
		}); allocs != 0 {
			t.Errorf("window %d: %v allocations per cached pricing call", w, allocs)
		}
		read, left := tm.PricedVars-priced, tm.SkippedVars-skipped
		if read+left != int64(calls*min(w, total)) {
			t.Errorf("window %d: %d calls read %d and skipped %d variables, want %d in all", w, calls, read, left, calls*min(w, total))
		}
		if tm.CachedScans-served != int64(calls) || tm.ScanWork-work != read {
			t.Errorf("window %d: %d calls counted %d served and %d scan work, want %d and %d",
				w, calls, tm.CachedScans-served, tm.ScanWork-work, calls, read)
		}
		if w == total && (read == 0 || left == 0) {
			t.Errorf("full pass: %d calls read %d and skipped %d variables, want some of each", calls, read, left)
		}
	}
	before := tm.SkippedBtrans
	calls := 0
	if allocs := testing.AllocsPerRun(20, func() {
		st.btran()
		calls++
	}); allocs != 0 {
		t.Errorf("%v allocations per BTRAN on exact duals", allocs)
	}
	if got := tm.SkippedBtrans - before; got != int64(calls) {
		t.Errorf("%d BTRANs on exact duals counted %d skipped", calls, got)
	}
}

// ScanMode names the scans TestScanRuleWork compares: the scan rule's pick,
// or one scan forced on every call the rule would pick for.
type ScanMode = scanKind

const (
	ScanRule   ScanMode = scanAuto
	ScanPlain  ScanMode = scanPlain
	ScanCached ScanMode = scanCached
)

// WithScan returns cfg with its scan forced to mode.
func WithScan(cfg Revised, mode ScanMode) Revised {
	cfg.tuning.scan = mode
	return cfg
}
