package lp_test

import (
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/workload"
)

// TestBoundedPricingInertOnTall solves plan_tall's Dantzig-class instance
// (2400 users, 200 events, m = 2600) through core.LPPacking, as the benchmark
// does, beside the plain reference scan (lp.CheckPricing). Its blocks of
// short columns from many users touch too many rows for the shape rule, so
// the cold solve must keep no bound: the calls the plain or the bounded scan
// served read no more variables than their reference scans read, and skip
// none. The calls the reduced-cost cache served skip by design, and
// CheckPricing checks them against the plain scan on its own.
func TestBoundedPricingInertOnTall(t *testing.T) {
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2400, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	var tm lp.PhaseTimers
	done := lp.CheckPricing(nil)
	_, err = core.LPPacking(in, core.Options{Seed: 1, LP: lp.Revised{Timers: &tm}})
	rep := done()
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.UncachedCalls == 0 || tm.Pivots == 0 {
		t.Fatalf("%d plain or bounded pricing calls checked over %d pivots", rep.UncachedCalls, tm.Pivots)
	}
	if tm.BoundedScans != 0 || rep.UncachedRead > rep.UncachedPlainVars || rep.UncachedSkipped != 0 {
		t.Errorf("%d bounded calls; the plain and bounded calls read %d and skipped %d variables; their reference scans read %d",
			tm.BoundedScans, rep.UncachedRead, rep.UncachedSkipped, rep.UncachedPlainVars)
	}
	t.Logf("%d pivots, %d pricing calls (%d plain, %d cached), %d variables read", tm.Pivots, rep.Calls, tm.PlainScans, tm.CachedScans, tm.PricedVars)
}
