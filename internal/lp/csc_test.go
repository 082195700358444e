package lp

import (
	"reflect"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// The flat CSC layout must survive a round trip: assembly columns in,
// identical columns out, with a well-formed ColPtr.
func TestCSCRoundTrip(t *testing.T) {
	cols := []Column{
		{Rows: []int{0, 2}},
		{},                     // empty column
		{Rows: []int{1}},       // singleton
		{Rows: []int{2, 0, 1}}, // kept in the listed order
	}
	c := []float64{1, 2, 3, 4}
	p := NewProblem(3, []float64{1, 1, 1}, c, cols)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != len(cols) || p.NNZ() != 6 {
		t.Fatalf("shape %d cols / %d nnz, want %d / 6", p.NumCols(), p.NNZ(), len(cols))
	}
	for j, col := range cols {
		rows := p.Col(j)
		if len(rows) != len(col.Rows) {
			t.Fatalf("column %d has %d nonzeros, want %d", j, len(rows), len(col.Rows))
		}
		for k := range rows {
			if int(rows[k]) != col.Rows[k] {
				t.Fatalf("column %d entry %d: row %d want %d", j, k, rows[k], col.Rows[k])
			}
		}
		if p.C[j] != c[j] {
			t.Fatalf("column %d objective %v, want %v", j, p.C[j], c[j])
		}
	}
}

// Incremental AddColumn must agree with one-shot NewProblem, Reserve must
// not disturb existing content, and the random-packing generator must
// produce internally consistent CSC.
func TestCSCIncrementalBuild(t *testing.T) {
	rng := xrand.New(9)
	want := randomPacking(rng, 8, 5, 4)
	n := want.NumCols()

	// rebuild column-by-column with interleaved Reserve calls
	got := &Problem{NumRows: want.NumRows, B: want.B}
	for j := 0; j < n; j++ {
		if j == 2 {
			got.Reserve(n, want.NNZ())
		}
		rows32 := want.Col(j)
		rows := make([]int, len(rows32))
		for k, r := range rows32 {
			rows[k] = int(r)
		}
		got.AddColumn(want.C[j], rows)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ColPtr, want.ColPtr) ||
		!reflect.DeepEqual(got.Rows, want.Rows) ||
		!reflect.DeepEqual(got.C, want.C) {
		t.Fatal("incremental build diverged from original CSC arrays")
	}
	// and both solve to the same optimum
	a, err := SolveConfig(want, Revised{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveConfig(got, Revised{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("objectives differ: %v vs %v", a.Objective, b.Objective)
	}
}
