package lp

import "time"

// PhaseTimers accumulates where a solve spends its time, sampled at the
// kernel leaves so the phases are disjoint: Ftran covers the forward solves
// (B⁻¹a, including the eta sweep), Btran the transposed solves (duals and
// pivot rows, including btranUnit), Pricing every entering/leaving scan
// (Devex, partial Dantzig, Bland and the dual-repair ratio test) and the
// block summaries of a cold partial-Dantzig solve, Sync the reduced-cost
// cache's upkeep (syncRed bringing it and its candidate index to the
// current duals, and Solver.Resolve carrying it across a delta),
// Update the Devex reduced-cost and reference-weight update and the dual
// step y += γβ of Dantzig and dual-repair pivots, and Factor the LU
// (re)factorizations plus their xB refresh. Pivots counts primal pivots,
// RepairPivots the dual pivots of warm-start repair.
//
// Attach one via Revised.Timers; it keeps accumulating across solves until
// the caller zeroes it. Not synchronized — drive one solve at a time per
// struct. A nil *PhaseTimers is valid everywhere and costs one branch per
// kernel call.
type PhaseTimers struct {
	Ftran, Btran, Pricing, Sync, Update, Factor time.Duration
	Pivots, RepairPivots                        int64

	// HypersparseFtran and HypersparseBtran count triangular solves served
	// by the symbolic-reach kernels (hypersparse.go) instead of the dense
	// sweeps — the coverage metric for the warm-resolve fast path.
	HypersparseFtran, HypersparseBtran int64
	// RowPricedUpdates counts Devex updates whose pivot row was sparse
	// enough for the row scatter, so they touched only the columns the row
	// reaches; the rest paid a pass over every column. Its share of Pivots
	// (on a Devex solve) is what the sparse update's gain depends on.
	RowPricedUpdates int64
	// PricedVars counts the variables the partial Dantzig scan read, and
	// SkippedVars those it counted as scanned without reading them: on the
	// bounded scan, because a block's dual bound proved them non-improving;
	// on the cached one, because the candidate index does not mark them
	// improving, so only the marked ones are read. Their sum is what the
	// plain scan reads, so SkippedVars over the sum is the skip share.
	PricedVars, SkippedVars int64
	// PlainScans, CachedScans and BoundedScans count the partial Dantzig
	// calls each scan served: the plain scan, the candidate index over the
	// synced reduced-cost cache, and the block bounds of a cold solve.
	PlainScans, CachedScans, BoundedScans int64
	// SyncWork and ScanWork sum, over the calls that ran, the two counts
	// the scan rule compares (see Revised). SyncWork is the reduced-cost
	// cache's sync work: Σ(|row r| + 1) over the rows a sync found moved,
	// plus its queued columns, or n + m for a full pass. ScanWork counts
	// the variables the scans the rule picks read: the plain scan and the
	// candidate index in partial Dantzig calls, Bland's scan, and the
	// recertification's check of the recomputed entries. The bounded scan,
	// which the rule does not pick, is not in it.
	SyncWork, ScanWork int64
	// BudgetExhausted counts dual-repair attempts that ran out of their
	// pivot budget; PartialWarmCutovers counts the keep-the-basis
	// refactorize-and-retry recoveries those (and stalls) triggered.
	BudgetExhausted, PartialWarmCutovers int64
	// MovedRows counts the rows whose dual the reduced-cost cache found
	// moved since its last sync, and RecomputedCols the variables it
	// recomputed for them and for its queued columns; a sync of an invalid
	// cache counts every row and every variable. Their ratio to the
	// resolves run is the cache's per-resolve work.
	MovedRows, RecomputedCols int64
	// SkippedBtrans counts the full BTRANs of the duals that returned at
	// once because y was already exact for the current basis, its
	// factorization and c_B: the fast finish, the warm pivot loop's entry
	// and the dual repair's first pivot after a delta that changed none of
	// them.
	SkippedBtrans int64
}

// Total returns the summed phase time (excluding untimed glue such as the
// ratio test and basis bookkeeping, which are O(m) per pivot and small).
func (tm *PhaseTimers) Total() time.Duration {
	return tm.Ftran + tm.Btran + tm.Pricing + tm.Sync + tm.Update + tm.Factor
}

type phase int

const (
	phFtran phase = iota
	phBtran
	phPricing
	phSync
	phUpdate
	phFactor
)

// tick returns a start timestamp when tm is non-nil, else the zero time —
// paired with PhaseTimers.add so untimed solves skip the clock read.
func tick(tm *PhaseTimers) (t0 time.Time) {
	if tm != nil {
		t0 = time.Now()
	}
	return
}

// add accumulates the time since t0 into phase p. Valid on a nil receiver.
func (tm *PhaseTimers) add(p phase, t0 time.Time) {
	if tm == nil {
		return
	}
	d := time.Since(t0)
	switch p {
	case phFtran:
		tm.Ftran += d
	case phBtran:
		tm.Btran += d
	case phPricing:
		tm.Pricing += d
	case phSync:
		tm.Sync += d
	case phUpdate:
		tm.Update += d
	case phFactor:
		tm.Factor += d
	}
}

func (tm *PhaseTimers) pivotDone() {
	if tm != nil {
		tm.Pivots++
	}
}

func (tm *PhaseTimers) repairPivotDone() {
	if tm != nil {
		tm.RepairPivots++
	}
}

func (tm *PhaseTimers) hypersparseFtran() {
	if tm != nil {
		tm.HypersparseFtran++
	}
}

func (tm *PhaseTimers) hypersparseBtran() {
	if tm != nil {
		tm.HypersparseBtran++
	}
}

func (tm *PhaseTimers) rowPricedUpdate() {
	if tm != nil {
		tm.RowPricedUpdates++
	}
}

func (tm *PhaseTimers) budgetExhausted() {
	if tm != nil {
		tm.BudgetExhausted++
	}
}

func (tm *PhaseTimers) partialWarmCutover() {
	if tm != nil {
		tm.PartialWarmCutovers++
	}
}

// scanned counts one partial Dantzig call that read priced variables and
// skipped skipped, served by the scan kind.
func (tm *PhaseTimers) scanned(kind scanKind, priced, skipped int) {
	if tm == nil {
		return
	}
	tm.PricedVars += int64(priced)
	tm.SkippedVars += int64(skipped)
	switch kind {
	case scanPlain:
		tm.PlainScans++
		tm.ScanWork += int64(priced)
	case scanCached:
		tm.CachedScans++
		tm.ScanWork += int64(priced)
	case scanBounded:
		tm.BoundedScans++
	}
}

// read counts variables read by a rule-picked scan outside partial Dantzig
// pricing: Bland's scan and the recertification's check.
func (tm *PhaseTimers) read(n int) {
	if tm != nil {
		tm.ScanWork += int64(n)
	}
}

func (tm *PhaseTimers) btranSkipped() {
	if tm != nil {
		tm.SkippedBtrans++
	}
}

func (tm *PhaseTimers) synced(rows, cols, work int) {
	if tm != nil {
		tm.MovedRows += int64(rows)
		tm.RecomputedCols += int64(cols)
		tm.SyncWork += int64(work)
	}
}
