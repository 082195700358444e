package core

// BenchmarkPlannerUpdate measures end-to-end Planner.Update cost (delta
// cache sync + validation + re-enumeration and column diff + warm LP
// re-solve + incremental rounding + scoring) on the |U|=500 Table I point,
// for a single-user bid delta and a 5%-of-users batch delta, and on the
// |U|=4000 Table I point for a single-user delta, which shows how the cost
// of a one-user update grows with the LP's width. CI emits the numbers as
// the BENCH_update.json artifact.

import (
	"testing"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// benchToggle holds a user's two alternating bid variants: the original
// list and the list missing its last bid. Swapping pre-built slice headers
// keeps the mutation itself allocation-free, so the benchmark measures
// Update and nothing else.
type benchToggle struct {
	user int
	alt  [2][]int
}

func buildPlannerBench(tb testing.TB, cfg workload.SyntheticConfig, every int) (*model.Instance, []benchToggle, []int) {
	tb.Helper()
	in, err := workload.Synthetic(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var toggles []benchToggle
	var users []int
	stride := every
	if stride >= in.NumUsers() {
		stride = 1 // scan until the first eligible user, then stop below
	}
	for u := 0; u < in.NumUsers(); u += stride {
		if every >= in.NumUsers() && len(toggles) == 1 {
			break // single-user leg: exactly one toggling user
		}
		bids := in.Users[u].Bids
		if len(bids) < 2 {
			continue
		}
		toggles = append(toggles, benchToggle{
			user: u,
			alt: [2][]int{
				append([]int(nil), bids...),
				append([]int(nil), bids[:len(bids)-1]...),
			},
		})
		users = append(users, u)
	}
	if len(toggles) == 0 {
		tb.Fatal("no toggleable users in fixture")
	}
	return in, toggles, users
}

func benchmarkPlannerUpdate(b *testing.B, cfg workload.SyntheticConfig, every int) {
	base, toggles, users := buildPlannerBench(b, cfg, every)
	in := base.Clone()
	p, err := NewPlanner(in, Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	state := 0
	step := func() error {
		state ^= 1
		for _, tg := range toggles {
			in.Users[tg.user].Bids = tg.alt[state]
		}
		_, err := p.Update(Delta{Users: users})
		return err
	}
	// Prime both variants so the timed loop sees the steady state: warm
	// basis, populated scratch, maintained rounding state.
	for i := 0; i < 2; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := p.Stats()
	if st.WarmSolves > 0 {
		b.ReportMetric(float64(st.WarmPivots)/float64(st.WarmSolves), "pivots/resolve")
	}
}

func BenchmarkPlannerUpdate(b *testing.B) {
	u500 := workload.SyntheticConfig{Seed: 1, NumUsers: 500, NumEvents: 100}
	// every=10000 > |U| keeps only the first eligible user: a 1-user delta.
	b.Run("incremental/single-user", func(b *testing.B) { benchmarkPlannerUpdate(b, u500, 10000) })
	// every=20 toggles 5% of the 500 users per Update.
	b.Run("incremental/batch-5pct", func(b *testing.B) { benchmarkPlannerUpdate(b, u500, 20) })
	// Table I at |U| = 4000 (its default 200 events), one user per Update.
	b.Run("incremental/single-user-U4000", func(b *testing.B) {
		benchmarkPlannerUpdate(b, workload.SyntheticConfig{Seed: 1, NumUsers: 4000}, 10000)
	})
}
