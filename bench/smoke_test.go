package main

import (
	"regexp"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at ~1/20 size, end to end
// and traced, and holds the catalogue and the program to each other: each
// run must be correct and emit exactly the catalogue's metrics for its half,
// with the catalogue's units.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	unique := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range sp.EndToEnd {
		unique("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range sp.PerLayer {
		unique("per-layer metric", d.Name)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program implements %d", len(sp.Workloads), len(workloads))
	}

	for _, w := range sp.Workloads {
		unique("workload", w.Name)
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.5, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := run(sp, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := sp.EndToEnd
			if trace {
				defs = sp.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s emitted=%v unit=%q, want unit %q", w.Name, trace, d.Name, ok, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}
