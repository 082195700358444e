package core

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// parallelTestInstance is the fixture for the worker-invariance tests:
// large enough that enumeration and sampling fan out over many pool chunks,
// small enough to keep the tests fast.
func parallelTestInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		Seed: 5, NumUsers: 700, NumEvents: 70,
		MaxEventCap: 12, MaxUserCap: 4, MinBids: 4, MaxBids: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameResult asserts bit-identical arrangements, utilities and LP
// objectives — the determinism contract of the parallel pipeline.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Arrangement.Sets, b.Arrangement.Sets) {
		t.Fatalf("%s: arrangements differ", label)
	}
	if a.Utility != b.Utility {
		t.Fatalf("%s: utilities differ: %v vs %v", label, a.Utility, b.Utility)
	}
	if a.LPObjective != b.LPObjective {
		t.Fatalf("%s: LP objectives differ: %v vs %v", label, a.LPObjective, b.LPObjective)
	}
	if a.SampledPairs != b.SampledPairs || a.RepairDropped != b.RepairDropped {
		t.Fatalf("%s: diagnostics differ: %+v vs %+v", label, a, b)
	}
}

// LPPacking must produce bit-identical results for every worker count.
func TestLPPackingWorkerCountInvariance(t *testing.T) {
	in := parallelTestInstance(t)
	ref, err := LPPacking(in, Options{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(in, ref.Arrangement); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := LPPacking(in, Options{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "workers="+string(rune('0'+workers)), ref, got)
	}
}

// And the same end-to-end under different GOMAXPROCS values, which drive
// every auto-sized worker pool in the pipeline.
func TestLPPackingGOMAXPROCSInvariance(t *testing.T) {
	in := parallelTestInstance(t)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	ref, err := LPPacking(in, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	got, err := LPPacking(in, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "GOMAXPROCS 1 vs 4", ref, got)
}
