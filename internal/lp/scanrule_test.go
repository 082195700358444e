package lp_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/workload"
)

// scanRun is what one run of a scan-rule workload did: its pivots, an
// FNV-1a chain over its LP objectives' bits, and its phase timers.
type scanRun struct {
	pivots int64
	objs   uint64
	tm     lp.PhaseTimers
}

// work is the run's counted pricing work, the two counts the scan rule
// compares.
func (r scanRun) work() int64 { return r.tm.SyncWork + r.tm.ScanWork }

// scanWorkloads are the scan rule's three workloads: the cold partial
// Dantzig solve of plan_tall's Dantzig-class LP, where the cache wins; the
// cold solve of Table I |U| = 2,000 at seed 2·1,000,003, where the plain
// scan wins; and the warm re-solves of TestWarmPricingOnChurn's update
// stream, where the cache wins again. Each runs under cfg.
var scanWorkloads = []struct {
	name string
	run  func(t *testing.T, cfg lp.Revised) scanRun
}{
	{"plan_tall", func(t *testing.T, cfg lp.Revised) scanRun {
		return scanCold(t, workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2400, NumEvents: 200, MaxEventCap: 100}, cfg)
	}},
	{"TableI-2000", func(t *testing.T, cfg lp.Revised) scanRun {
		return scanCold(t, workload.SyntheticConfig{Seed: 2 * 1_000_003}, cfg)
	}},
	{"churn", scanChurn},
}

// scanCold solves the instance of c cold through core.LPPacking.
func scanCold(t *testing.T, c workload.SyntheticConfig, cfg lp.Revised) scanRun {
	t.Helper()
	in, err := workload.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	var r scanRun
	cfg.Timers = &r.tm
	res, err := core.LPPacking(in, core.Options{Seed: 1, LP: cfg})
	if err != nil {
		t.Fatal(err)
	}
	r.pivots, r.objs = r.tm.Pivots, math.Float64bits(res.LPObjective)
	return r
}

// scanChurn runs a Planner on TestWarmPricingOnChurn's instance through
// the first 4·51 updates of its stream, the cold solve included.
func scanChurn(t *testing.T, cfg lp.Revised) scanRun {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_003, NumUsers: 2000, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	var r scanRun
	cfg.Timers = &r.tm
	p, err := core.NewPlanner(in, core.Options{Seed: 1, LP: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	chain := fnv.New64a()
	var buf [8]byte
	next := churnStream(in)
	for j := 0; j < 4*51; j++ {
		if _, err := p.Update(next(j)); err != nil {
			t.Fatalf("update %d: %v", j, err)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Objective()))
		chain.Write(buf[:])
	}
	r.pivots, r.objs = r.tm.Pivots+r.tm.RepairPivots, chain.Sum64()
	return r
}

// TestScanRuleWork runs each scan-rule workload three times: under the
// rule, with every call forced to the plain scan, and with every call
// forced to the cache. The scans return the same (q, next), so the pivots
// and the objectives' bits must be equal across the three. The rule must
// cost, in SyncWork + ScanWork, no more than 1.1 times the cheaper of the
// two forced runs: it must find the scan that wins each workload without
// paying much for the changes of scan.
func TestScanRuleWork(t *testing.T) {
	for _, wl := range scanWorkloads {
		rule := wl.run(t, lp.WithScan(lp.Revised{}, lp.ScanRule))
		plain := wl.run(t, lp.WithScan(lp.Revised{}, lp.ScanPlain))
		cached := wl.run(t, lp.WithScan(lp.Revised{}, lp.ScanCached))
		for _, f := range []struct {
			name string
			r    scanRun
		}{{"plain", plain}, {"cached", cached}} {
			if f.r.pivots != rule.pivots || f.r.objs != rule.objs {
				t.Errorf("%s: forced %s ran %d pivots to objectives %#x, the rule %d to %#x",
					wl.name, f.name, f.r.pivots, f.r.objs, rule.pivots, rule.objs)
			}
		}
		if plain.tm.CachedScans != 0 || cached.tm.PlainScans != 0 {
			t.Errorf("%s: forced plain served %d calls from the cache, forced cached %d by the plain scan",
				wl.name, plain.tm.CachedScans, cached.tm.PlainScans)
		}
		best := min(plain.work(), cached.work())
		if 10*rule.work() > 11*best {
			t.Errorf("%s: the rule's work %d is more than 1.1× the cheaper forced scan's %d (plain %d, cached %d)",
				wl.name, rule.work(), best, plain.work(), cached.work())
		}
		t.Logf("%s: %d pivots; work: rule %d (%d plain and %d cached calls), plain %d, cached %d",
			wl.name, rule.pivots, rule.work(), rule.tm.PlainScans, rule.tm.CachedScans, plain.work(), cached.work())
	}
}

// TestScanRuleWorkerInvariance runs the scan-rule workloads under the
// rule with one worker and with four: the rule reads counts, never a clock
// or the pool, so every scan choice, and with it every count, must be the
// same. Table I is where the rule changes scan most often. CI runs it at
// GOMAXPROCS 1 and 4.
func TestScanRuleWorkerInvariance(t *testing.T) {
	for _, wl := range scanWorkloads {
		one := wl.run(t, lp.Revised{Workers: 1})
		four := wl.run(t, lp.Revised{Workers: 4})
		a, b := one.tm, four.tm
		if one.pivots != four.pivots || one.objs != four.objs ||
			a.PlainScans != b.PlainScans || a.CachedScans != b.CachedScans || a.BoundedScans != b.BoundedScans ||
			a.SyncWork != b.SyncWork || a.ScanWork != b.ScanWork || a.PricedVars != b.PricedVars || a.SkippedVars != b.SkippedVars {
			t.Errorf("%s: 1 worker: %d pivots, objectives %#x, calls %d/%d/%d, work %d+%d, read %d skipped %d; 4 workers: %d pivots, objectives %#x, calls %d/%d/%d, work %d+%d, read %d skipped %d",
				wl.name, one.pivots, one.objs, a.PlainScans, a.CachedScans, a.BoundedScans, a.SyncWork, a.ScanWork, a.PricedVars, a.SkippedVars,
				four.pivots, four.objs, b.PlainScans, b.CachedScans, b.BoundedScans, b.SyncWork, b.ScanWork, b.PricedVars, b.SkippedVars)
		}
	}
}
