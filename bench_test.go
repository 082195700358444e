package igepa_test

// One benchmark per table/figure of the paper's evaluation, plus
// micro-benchmarks of the pipeline stages. The figure benchmarks run the
// same sweep shapes as cmd/igepa-bench but at reduced scale (|U|≈400-600,
// one repetition) so `go test -bench=.` completes in minutes; the
// full-scale paper reproduction is `igepa-bench -exp all`.

import (
	"fmt"
	"testing"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/eval"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// benchPoint builds a reduced synthetic point for figure benchmarks.
func benchPoint(label string, seed int64, mod func(*workload.SyntheticConfig)) eval.Point {
	return eval.Point{
		Label: label,
		Gen: func(rep int) (*model.Instance, error) {
			cfg := workload.SyntheticConfig{
				Seed:      seed + int64(rep),
				NumEvents: 60, NumUsers: 400,
				MaxEventCap: 15, MaxUserCap: 4,
				MinBids: 3, MaxBids: 6,
			}
			mod(&cfg)
			return workload.Synthetic(cfg)
		},
	}
}

// runFigure executes a reduced sweep once per benchmark iteration and
// reports the LP-packing mean utility of the middle point as a metric.
func runFigure(b *testing.B, id string, points []eval.Point) {
	b.Helper()
	e := &eval.Experiment{
		ID: id, Title: "reduced " + id, XLabel: "x",
		Points:     points,
		Algorithms: eval.StandardAlgorithms(1, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		t, err := eval.Run(e, eval.RunConfig{Reps: 1, Seed: int64(i + 1), Validate: true})
		if err != nil {
			b.Fatal(err)
		}
		last = t.Series[0].Cells[len(points)/2].Mean
	}
	b.ReportMetric(last, "lp-packing-utility")
}

func BenchmarkFig1aNumEvents(b *testing.B) {
	var pts []eval.Point
	for _, nv := range []int{30, 60, 90} {
		nv := nv
		pts = append(pts, benchPoint(fmt.Sprintf("|V|=%d", nv), 11,
			func(c *workload.SyntheticConfig) { c.NumEvents = nv }))
	}
	runFigure(b, "fig1a", pts)
}

func BenchmarkFig1bNumUsers(b *testing.B) {
	var pts []eval.Point
	for _, nu := range []int{200, 400, 800} {
		nu := nu
		pts = append(pts, benchPoint(fmt.Sprintf("|U|=%d", nu), 13,
			func(c *workload.SyntheticConfig) { c.NumUsers = nu }))
	}
	runFigure(b, "fig1b", pts)
}

func BenchmarkFig1cConflictProb(b *testing.B) {
	var pts []eval.Point
	for _, p := range []float64{0.1, 0.3, 0.5} {
		p := p
		pts = append(pts, benchPoint(fmt.Sprintf("pcf=%.1f", p), 17,
			func(c *workload.SyntheticConfig) { c.PConflict = p }))
	}
	runFigure(b, "fig1c", pts)
}

func BenchmarkFig1dFriendProb(b *testing.B) {
	var pts []eval.Point
	for _, p := range []float64{0.1, 0.5, 0.9} {
		p := p
		pts = append(pts, benchPoint(fmt.Sprintf("pdeg=%.1f", p), 19,
			func(c *workload.SyntheticConfig) { c.PFriend = p }))
	}
	runFigure(b, "fig1d", pts)
}

func BenchmarkFig1eEventCap(b *testing.B) {
	var pts []eval.Point
	for _, cv := range []int{5, 15, 25} {
		cv := cv
		pts = append(pts, benchPoint(fmt.Sprintf("maxcv=%d", cv), 23,
			func(c *workload.SyntheticConfig) { c.MaxEventCap = cv }))
	}
	runFigure(b, "fig1e", pts)
}

func BenchmarkFig1fUserCap(b *testing.B) {
	var pts []eval.Point
	for _, cu := range []int{2, 4, 6} {
		cu := cu
		pts = append(pts, benchPoint(fmt.Sprintf("maxcu=%d", cu), 29,
			func(c *workload.SyntheticConfig) { c.MaxUserCap = cu }))
	}
	runFigure(b, "fig1f", pts)
}

func BenchmarkTable2Meetup(b *testing.B) {
	pts := []eval.Point{{
		Label: "meetup-reduced",
		Gen: func(rep int) (*model.Instance, error) {
			return workload.Meetup(workload.MeetupConfig{
				Seed: 31 + int64(rep), NumEvents: 80, NumUsers: 600,
			})
		},
	}}
	e := &eval.Experiment{
		ID: "table2", Title: "reduced table2", XLabel: "dataset",
		Points:     pts,
		Algorithms: eval.StandardAlgorithms(1, 500),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Run(e, eval.RunConfig{Reps: 1, Seed: int64(i + 1), Validate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRatioTheorem2(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunRatio(eval.RatioConfig{
			Instances: 5, SamplesPerInstance: 8, Seed: int64(i + 1),
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		worst = res.WorstCase
	}
	b.ReportMetric(worst, "worst-ratio")
}

func BenchmarkAblateAlpha(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 37, NumEvents: 60, NumUsers: 400, MaxEventCap: 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Alpha: alpha, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				util = res.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

func BenchmarkAblateRepair(b *testing.B) {
	// tight capacities so repair actually fires
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 41, NumEvents: 60, NumUsers: 600, MaxEventCap: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ord := range []igepa.RepairOrder{igepa.RepairByIndex, igepa.RepairRandom, igepa.RepairByWeightAsc} {
		b.Run("order="+ord.String(), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Repair: ord, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				util = res.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// --- micro-benchmarks of the pipeline stages -----------------------------

func BenchmarkSyntheticGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeetupGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := igepa.Meetup(igepa.MeetupConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPPackingDefaults is the headline end-to-end benchmark: the
// |U|=4000 Table I sweep point, the scale at which the revised solver's
// parallel Devex pricing and the flat CSC/arena storage pay off. Run with
// -benchtime 1x for a smoke (one solve ≈ tens of seconds single-threaded).
func BenchmarkLPPackingDefaults(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1, NumUsers: 4000, NumEvents: 200})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPPackingMedium is the former default scale, kept for quick
// comparisons and for machines where the 4000-user point is too slow.
func BenchmarkLPPackingMedium(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1, NumUsers: 500, NumEvents: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedOnline is the serving-layer point: a Meetup-style arrival
// stream replayed through internal/shard at S ∈ {1,2,4,8} under each lease
// policy. The S=1 row is the single-shard baseline the sharded rows are
// compared against; utility and the vs-single ratio are reported as metrics
// so lease-fragmentation regressions are visible alongside throughput
// (measured at S=8: even ≈0.997 of single-shard utility, demand ≈0.9997,
// lp ≈1.0007 — the demand-aware renewal closes the even split's gap).
func BenchmarkShardedOnline(b *testing.B) {
	in, err := igepa.Meetup(igepa.MeetupConfig{Seed: 1, NumEvents: 120, NumUsers: 1500})
	if err != nil {
		b.Fatal(err)
	}
	order := make([]int, in.NumUsers())
	for i := range order {
		order[i] = i
	}
	base, err := igepa.ServeSharded(in, order, igepa.ShardOptions{Shards: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	single := base.Utility
	run := func(s int, lease igepa.LeasePolicy) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := igepa.ServeSharded(in, order, igepa.ShardOptions{Shards: s, Seed: 1, Lease: lease})
				if err != nil {
					b.Fatal(err)
				}
				util = res.Utility
			}
			b.ReportMetric(util, "utility")
			b.ReportMetric(util/single, "vs-single")
			b.ReportMetric(float64(len(order))*float64(b.N)/b.Elapsed().Seconds(), "arrivals/s")
		}
	}
	b.Run("shards=1", run(1, igepa.LeaseDemand))
	for _, s := range []int{2, 4, 8} {
		for _, lease := range []igepa.LeasePolicy{igepa.LeaseDemand, igepa.LeaseLP} {
			b.Run(fmt.Sprintf("shards=%d/lease=%v", s, lease), run(s, lease))
		}
	}
}

func BenchmarkGreedyDefaults(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = igepa.Greedy(in)
	}
}

func BenchmarkRandomBaselines(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("random-u", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = igepa.RandomU(in, int64(i))
		}
	})
	b.Run("random-v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = igepa.RandomV(in, int64(i))
		}
	})
}

func BenchmarkValidate(b *testing.B) {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arr := igepa.Greedy(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := igepa.Validate(in, arr); err != nil {
			b.Fatal(err)
		}
	}
}
