package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// solutionHash is an FNV-1a hash over the bits of X then Y, with signed
// zeros collapsed.
func solutionHash(sol *lp.Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vec := range [][]float64{sol.X, sol.Y} {
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v+0))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

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
		rows := prob.Col(j)
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
	const (
		wantIters = 3887
		wantObj   = 0x40aa2969d0730611
		wantHash  = 0x6fc191d868e123d0
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
	}
}

// meetupPin is a small Meetup instance, 400 users and the default 190
// events (m = 590), with its admissible sets.
func meetupPin(t *testing.T) (*model.Instance, [][]admissible.Set) {
	t.Helper()
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	sets, _ := enumerateAll(in, conflict.FromFunc(in.NumEvents(), in.Conflicts), 0, 0)
	return in, sets
}

// TestMeetupTrajectoryPinned pins, absolutely, the default solve of a
// Meetup-shaped benchmark LP. At m = 590 lp.SolveConfig takes the revised
// simplex with Dantzig pricing, so this fixes the pricing scan, the FTRAN of
// BuildBenchmarkLP's columns and the certificate on the paper's own workload
// family: the pivot count, the objective's bits and the X/Y hash must not
// move. amd64 only.
func TestMeetupTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	prob, _ := BuildBenchmarkLP(meetupPin(t))
	sol, err := lp.SolveConfig(prob, lp.Revised{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Verify(prob, sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	const (
		wantIters = 585
		wantObj   = 0x408c3a97b9fbaabb
		wantHash  = 0x4a9d77c3850593e0
	)
	if obj, h := math.Float64bits(sol.Objective), solutionHash(sol); sol.Iterations != wantIters || obj != wantObj || h != wantHash {
		t.Errorf("trajectory moved: got iters=%d obj=%#x hash=%#x, want iters=%d obj=%#x hash=%#x",
			sol.Iterations, obj, h, wantIters, uint64(wantObj), uint64(wantHash))
	}
}

// TestBenchmarkLPFootprint guards the LP's memory layout: building the
// benchmark LP of the Meetup pin instance allocates at most 4 bytes per
// nonzero (Rows, int32) plus 32 bytes per column (ColPtr, C and the
// two-int owner entry) plus O(m) (B and size-class rounding). An array
// that stores 8 bytes per nonzero again, such as a coefficient per entry,
// fails it. The delta of runtime.MemStats.TotalAlloc is taken around a
// build on this goroutine alone.
func TestBenchmarkLPFootprint(t *testing.T) {
	in, sets := meetupPin(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob, owner := BuildBenchmarkLP(in, sets)
	runtime.ReadMemStats(&after)
	n, nnz, m := prob.NumCols(), prob.NNZ(), prob.NumRows
	if len(owner) != n {
		t.Fatalf("%d owner entries for %d columns", len(owner), n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(4*nnz + 32*n + 64*m + 256<<10)
	t.Logf("BuildBenchmarkLP: %d bytes for n=%d nnz=%d m=%d (limit %d)", got, n, nnz, m, limit)
	if got > limit {
		t.Errorf("BuildBenchmarkLP allocated %d bytes, want ≤ 4·nnz + 32·n + O(m) = %d", got, limit)
	}
}
