package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/workload"
)

// TestPlanTallDevexTrajectoryPinned pins, absolutely, the cold default solve
// of one plan_tall-scale Devex-class LP: the benchmark's 2850-user, 200-event
// instance (m = 3050, past lp.DevexRowThreshold, so auto pricing is Devex).
// The pivot count, the objective's bits and an FNV-1a hash over the bits of
// X then Y (signed zeros collapsed) must not move; the smaller pins in
// internal/lp cover the warm paths. It also checks the row order the
// solver's pivot-row scatter relies on for bit-identity: every column of the
// built LP lists its rows in ascending order. amd64 only.
func TestPlanTallDevexTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in, err := workload.Synthetic(workload.SyntheticConfig{Seed: 1_000_006, NumUsers: 2850, NumEvents: 200, MaxEventCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	prob, _ := BuildBenchmarkLP(in, sets)
	for j := 0; j < prob.NumCols(); j++ {
		rows, _ := prob.Col(j)
		for k := 1; k < len(rows); k++ {
			if rows[k] <= rows[k-1] {
				t.Fatalf("column %d lists rows %v, not ascending", j, rows)
			}
		}
	}
	sol, err := (&lp.Revised{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, vec := range [][]float64{sol.X, sol.Y} {
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v+0))
			h.Write(buf[:])
		}
	}
	const (
		wantIters = 3887
		wantObj   = 0x40aa2969d0730611
		wantHash  = 0x6fc191d868e123d0
	)
	if obj := math.Float64bits(sol.Objective); sol.Iterations != wantIters || obj != wantObj || h.Sum64() != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h.Sum64(), wantIters, uint64(wantObj), uint64(wantHash))
	}
}
