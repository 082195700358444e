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
// the cold scan must keep no bound: it reads no more variables than the
// plain scan reads, and skips none.
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
	plain, calls := rep.PlainVars, rep.Calls
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || tm.Pivots == 0 {
		t.Fatalf("%d pricing calls checked over %d pivots", calls, tm.Pivots)
	}
	if tm.PricedVars > plain || tm.SkippedVars != 0 {
		t.Errorf("read %d and skipped %d variables; the plain scan read %d", tm.PricedVars, tm.SkippedVars, plain)
	}
	t.Logf("%d pivots, %d pricing calls, %d variables read", tm.Pivots, calls, tm.PricedVars)
}
