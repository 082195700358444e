package eval

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// smallExperiment is a fast two-point, two-algorithm sweep for harness
// tests.
func smallExperiment() *Experiment {
	gen := func(nv int) func(rep int) (*model.Instance, error) {
		return func(rep int) (*model.Instance, error) {
			return workload.Synthetic(workload.SyntheticConfig{
				Seed: int64(100*nv + rep), NumEvents: nv, NumUsers: 30,
				MaxEventCap: 4, MaxUserCap: 2, MinBids: 2, MaxBids: 4,
			})
		}
	}
	return &Experiment{
		ID: "small", Title: "harness test", XLabel: "|V|",
		Points: []Point{
			{Label: "|V|=10", X: 10, Gen: gen(10)},
			{Label: "|V|=15", X: 15, Gen: gen(15)},
		},
		Algorithms: StandardAlgorithms(1, 0),
	}
}

func TestRunProducesFullTable(t *testing.T) {
	tab, err := Run(smallExperiment(), RunConfig{Reps: 3, Seed: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Cells) != 2 {
			t.Fatalf("series %s has %d cells", s.Algorithm, len(s.Cells))
		}
		for _, c := range s.Cells {
			if c.N != 3 {
				t.Fatalf("cell has %d samples, want 3", c.N)
			}
			if c.Mean <= 0 {
				t.Fatalf("series %s has non-positive mean %v", s.Algorithm, c.Mean)
			}
		}
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	a, err := Run(smallExperiment(), RunConfig{Reps: 3, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallExperiment(), RunConfig{Reps: 3, Seed: 9, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Cells {
			if a.Series[i].Cells[j].Mean != b.Series[i].Cells[j].Mean {
				t.Fatalf("parallelism changed results: %v vs %v",
					a.Series[i].Cells[j].Mean, b.Series[i].Cells[j].Mean)
			}
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	e := smallExperiment()
	sentinel := errors.New("boom")
	e.Algorithms = append(e.Algorithms, Algorithm{
		Name: "broken",
		Run: func(in *model.Instance, seed int64) (*model.Arrangement, error) {
			return nil, sentinel
		},
	})
	if _, err := Run(e, RunConfig{Reps: 2, Seed: 1}); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestRunValidateCatchesInfeasible(t *testing.T) {
	e := smallExperiment()
	e.Algorithms = []Algorithm{{
		Name: "cheater",
		Run: func(in *model.Instance, seed int64) (*model.Arrangement, error) {
			arr := model.NewArrangement(in.NumUsers())
			// assign event 0 to user 0 regardless of bids — usually invalid
			arr.Sets[0] = []int{0}
			return arr, nil
		},
	}}
	_, err := Run(e, RunConfig{Reps: 5, Seed: 1, Validate: true})
	if err == nil {
		t.Skip("cheater happened to be feasible on every rep; acceptable")
	}
	if !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPaperRegistryComplete(t *testing.T) {
	want := []string{"ablate-alpha", "ablate-repair", "fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "table2"}
	got := PaperExperimentIDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		e, err := Paper(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != id || len(e.Points) == 0 || len(e.Algorithms) == 0 {
			t.Fatalf("experiment %s malformed: %d points %d algorithms", id, len(e.Points), len(e.Algorithms))
		}
	}
	if _, err := Paper("nope", 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestPaperSweepValuesMatchDesign(t *testing.T) {
	e, _ := Paper("fig1b", 1)
	want := []float64{1000, 2000, 4000, 6000, 8000, 10000}
	for i, p := range e.Points {
		if p.X != want[i] {
			t.Fatalf("fig1b x values wrong: %v at %d", p.X, i)
		}
	}
	e, _ = Paper("table2", 1)
	if len(e.Points) != 1 {
		t.Fatal("table2 should have a single dataset point")
	}
}

func TestRenderTextAndCSV(t *testing.T) {
	tab, err := Run(smallExperiment(), RunConfig{Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := RenderText(&txt, tab); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"LP-packing", "GG", "Random-U", "Random-V", "|V|=10", "|V|=15"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := RenderCSV(&csv, tab); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + 2 points × 4 algorithms
	if len(lines) != 1+8 {
		t.Errorf("CSV has %d lines, want 9:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,x,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
}

// TestRenderRatioCSV pins the ratio CSV's shape: a header, one row per
// instance and the aggregate row last.
func TestRenderRatioCSV(t *testing.T) {
	res := &RatioResult{Alpha: 0.5, PerInst: []float64{0.5, 0.75}, WorstCase: 0.5, LPGapMax: 1}
	res.Aggregate.N, res.Aggregate.Mean, res.Aggregate.Std = 2, 0.625, 0.125
	var buf bytes.Buffer
	if err := RenderRatioCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	want := "experiment,instance,alpha,ratio,std,min,n,opt_over_lp_max\n" +
		"ratio,0,0.5,0.500000,0,0.500000,1,\n" +
		"ratio,1,0.5,0.750000,0,0.750000,1,\n" +
		"ratio,all,0.5,0.625000,0.125000,0.500000,2,1.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("ratio CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("csvEscape = %q", got)
	}
	if got := csvEscape(`a"b`); got != `"a""b"` {
		t.Errorf("csvEscape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("csvEscape = %q", got)
	}
}

func TestRunRatioAboveTheoremFloor(t *testing.T) {
	res, err := RunRatio(RatioConfig{Instances: 8, SamplesPerInstance: 12, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.N == 0 {
		t.Fatal("no ratio samples")
	}
	// Theorem 2: E[ALG] ≥ OPT/4 at α=1/2. With sampling noise we still
	// expect to stay clear of the floor on these benign instances.
	if res.WorstCase < 0.25 {
		t.Errorf("worst-case empirical ratio %.3f below theoretical floor 0.25", res.WorstCase)
	}
	if res.LPGapMax > 1+1e-6 {
		t.Errorf("OPT exceeded LP bound: %v (violates Lemma 1)", res.LPGapMax)
	}
	var buf bytes.Buffer
	if err := RenderRatioText(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.25") {
		t.Errorf("ratio rendering missing floor: %s", buf.String())
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for p := 0; p < 5; p++ {
		for r := 0; r < 5; r++ {
			for a := 0; a < 4; a++ {
				s := deriveSeed(42, p, r, a)
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", p, r, a)
				}
				seen[s] = true
			}
		}
	}
}
