package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

func TestReduceDropsLooseRows(t *testing.T) {
	// Two "user" rows (b=1) and two "event" rows: row 2 has capacity 10 but
	// mass only 2 (undroppable rows must bind-able); row 3 has capacity 1.
	p := NewProblem(4, []float64{1, 1, 10, 1}, []float64{1, 1}, []Column{
		{Rows: []int{0, 2}},
		{Rows: []int{1, 2, 3}},
	})
	ps, stats, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows != 1 {
		t.Fatalf("dropped %d rows, want 1 (the loose capacity-10 row)", stats.DroppedRows)
	}
	if stats.RemainingRows != 3 || stats.RemainingCols != 2 {
		t.Fatalf("remaining %dx%d, want 3x2", stats.RemainingRows, stats.RemainingCols)
	}
	// objective must be preserved
	orig, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Solve(ps.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(orig.Objective-red.Objective) > 1e-6 {
		t.Fatalf("objective changed: %v vs %v", orig.Objective, red.Objective)
	}
	back := ps.Unreduce(red)
	if len(back.X) != 2 || len(back.Y) != 4 {
		t.Fatalf("unreduce shape wrong: %d/%d", len(back.X), len(back.Y))
	}
	if err := Verify(p, back, 1e-5); err != nil {
		t.Fatalf("unreduced solution does not verify: %v", err)
	}
}

func TestReduceForcesZeroCapacityColumns(t *testing.T) {
	p := NewProblem(2, []float64{0, 1}, []float64{5, 1}, []Column{
		{Rows: []int{0}}, // through the b=0 row
		{Rows: []int{1}},
	})
	ps, stats, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForcedColumns != 1 {
		t.Fatalf("forced %d columns, want 1", stats.ForcedColumns)
	}
	sol, err := Solve(ps.Problem)
	if err != nil {
		t.Fatal(err)
	}
	back := ps.Unreduce(sol)
	if back.X[0] != 0 {
		t.Fatalf("forced column has x = %v", back.X[0])
	}
	if math.Abs(back.Objective-1) > 1e-6 {
		t.Fatalf("objective %v, want 1", back.Objective)
	}
}

// Property: on random benchmark-shaped packing LPs, solving the reduced
// problem gives the same optimum as solving the original.
func TestReducePreservesOptimum(t *testing.T) {
	rng := xrand.New(321)
	for trial := 0; trial < 25; trial++ {
		p := randomPacking(rng, 3+rng.Intn(15), 2+rng.Intn(8), 4)
		direct, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		viaReduce, stats, err := SolveReduced(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct.Objective-viaReduce.Objective) > 5e-6*(1+math.Abs(direct.Objective)) {
			t.Fatalf("trial %d: direct %v vs reduced %v (stats %+v)",
				trial, direct.Objective, viaReduce.Objective, stats)
		}
		if err := Verify(p, viaReduce, 1e-5); err != nil {
			t.Fatalf("trial %d: unreduced solution fails verification: %v", trial, err)
		}
	}
}

func TestReduceRejectsMalformed(t *testing.T) {
	bad := NewProblem(1, []float64{-1}, []float64{1},
		[]Column{{Rows: []int{0}}})
	if _, _, err := Reduce(bad); err == nil {
		t.Fatal("malformed problem accepted")
	}
}

func TestDeduplicateColumns(t *testing.T) {
	p := NewProblem(2, []float64{2, 2}, []float64{1, 3, 2, 3}, []Column{
		{Rows: []int{0}},    // dup class A, c=1
		{Rows: []int{0}},    // dup class A, c=3 (representative)
		{Rows: []int{1, 0}}, // class B (order-insensitive)
		{Rows: []int{0, 1}}, // class B, c=3 (representative)
	})
	red, repr := DeduplicateColumns(p)
	if red.NumCols() != 2 {
		t.Fatalf("got %d columns, want 2: %+v", red.NumCols(), red)
	}
	if repr[0] != 1 || repr[1] != 1 {
		t.Errorf("class A representative = %d,%d, want 1,1", repr[0], repr[1])
	}
	if repr[2] != 3 || repr[3] != 3 {
		t.Errorf("class B representative = %d,%d, want 3,3", repr[2], repr[3])
	}
	// optimum preserved
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(red)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Objective-b.Objective) > 1e-6 {
		t.Fatalf("dedup changed optimum: %v vs %v", a.Objective, b.Objective)
	}
}

func TestColumnSignatureHelpers(t *testing.T) {
	if string(appendInt(nil, 0)) != "0" || string(appendInt(nil, 1234)) != "1234" {
		t.Error("appendInt broken")
	}
	a := columnSignature([]int32{2, 0})
	b := columnSignature([]int32{0, 2})
	if a != b {
		t.Error("signature not order-insensitive")
	}
	for _, other := range [][]int32{{0}, {0, 2, 3}, {20}, {0, 1}} {
		if columnSignature(other) == a {
			t.Errorf("signature collision between rows %v and [0 2]", other)
		}
	}
}
