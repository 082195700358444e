package lp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// trajectoryPin is the absolute fingerprint of one default-configuration
// solve: the objective's bits, the pivot count and an FNV-1a hash over the
// bits of X's live slots then Y (signed zeros collapsed, see canonBits).
type trajectoryPin struct {
	obj   uint64
	iters int
	hash  uint64
}

// pinOf fingerprints sol, the last solution of s. Tombstones are left out of
// the hash, so a solution without them hashes every entry of X.
func pinOf(sol *Solution, s *Solver) trajectoryPin {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], canonBits(v))
		h.Write(buf[:])
	}
	for j, v := range sol.X {
		if s.Live(j) {
			put(v)
		}
	}
	for _, v := range sol.Y {
		put(v)
	}
	return trajectoryPin{obj: math.Float64bits(sol.Objective), iters: sol.Iterations, hash: h.Sum64()}
}

// trajectoryFixture is one pinned solve chain: the cold solve, the solution
// after the warm Resolve chain, and the chain's total warm pivots.
type trajectoryFixture struct {
	seed       int64
	cold, warm trajectoryPin
	warmPivots int
}

// runTrajectoryChain solves p cold under cfg, then runs a fixed warm
// Resolve chain on it — a bid-style column churn, then a capacity shrink
// that sends the dual repair to work — and fingerprints both ends. p must
// have users user rows followed by events event rows; rng draws the churn's
// fresh columns.
func runTrajectoryChain(t *testing.T, rng *xrand.RNG, p *Problem, cfg Revised, users, events int) (cold, warm trajectoryPin, warmPivots int) {
	t.Helper()
	s := NewSolver(cfg)
	defer s.Release()
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	cold = pinOf(sol, s)

	// Bid churn: drop a spread of nonbasic and basic columns (the latter
	// force slack substitutions) and append fresh two-row columns.
	var churn ProblemDelta
	for j := 0; j < len(sol.X) && len(churn.RemoveCols) < 40; j += 7 {
		churn.RemoveCols = append(churn.RemoveCols, j)
	}
	for j := 3; j < len(sol.X) && len(churn.RemoveCols) < 80; j++ {
		if sol.X[j] > 0.5 {
			churn.RemoveCols = append(churn.RemoveCols, j)
			j += 40
		}
	}
	for k := 0; k < 60; k++ {
		churn.AddCols = append(churn.AddCols, Column{
			Rows: []int{rng.Intn(users), users + rng.Intn(events)}})
		churn.AddC = append(churn.AddC, rng.Float64())
	}
	if _, err := s.Resolve(churn); err != nil {
		t.Fatalf("churn: %v", err)
	}
	// Capacity shrink on every fourth event row.
	var shrink ProblemDelta
	for v := 0; v < events; v += 4 {
		row := users + v
		shrink.SetB = append(shrink.SetB, BoundChange{Row: row, B: math.Floor(s.Problem().B[row] * 0.5)})
	}
	sol, err = s.Resolve(shrink)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := Verify(s.Problem(), sol, 1e-6); err != nil {
		t.Fatalf("warm chain: %v", err)
	}
	return cold, pinOf(sol, s), s.Stats().WarmPivots
}

// TestDefaultTrajectoryPinned pins the default solve trajectory absolutely,
// not relative to another configuration: a cold solve and a fixed warm
// Resolve chain (a bid-style column churn, then a capacity shrink that sends
// the dual repair to work) on two seeded m = 1080 packing LPs must reproduce
// these exact bits at every worker count. parallelThreshold 1 puts the pooled
// pricing passes on the worker pool even at this size. Any change to a
// kernel, a pricing rule or a tolerance that moves a single pivot shows up
// here. amd64 only: other architectures may fuse multiply-adds and legally
// round differently.
func TestDefaultTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	fixtures := []trajectoryFixture{
		{
			seed:       1027,
			cold:       trajectoryPin{obj: 0x406395f72f1924b4, iters: 506, hash: 0xbf86eca6e3675363},
			warm:       trajectoryPin{obj: 0x4060756a1ca44821, iters: 0, hash: 0x4f68472e2f0b0767},
			warmPivots: 116,
		},
		{
			seed:       2053,
			cold:       trajectoryPin{obj: 0x4064724a68243fc9, iters: 944, hash: 0xc1b40593e0449402},
			warm:       trajectoryPin{obj: 0x4061289229c6e115, iters: 0, hash: 0x4c03dd2cd15fbadf},
			warmPivots: 129,
		},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2} {
			rng := xrand.New(fx.seed)
			const users, events = 1000, 80
			p := randomPacking(rng, users, events, 6)
			cold, warm, warmPivots := runTrajectoryChain(t, rng, p, Revised{Workers: workers, tuning: tuning{parallelThreshold: 1}}, users, events)
			if cold != fx.cold || warm != fx.warm || warmPivots != fx.warmPivots {
				t.Errorf("seed=%d workers=%d: trajectory moved:\n got cold=%#v warm=%#v warmPivots=%d\nwant cold=%#v warm=%#v warmPivots=%d",
					fx.seed, workers, cold, warm, warmPivots, fx.cold, fx.warm, fx.warmPivots)
			}
		}
	}
}

// ascendingRows returns a copy of p whose columns list their rows in
// ascending order — the order every LP the planning pipeline builds uses,
// and the one under which the pivot row equals a column dot product bit for
// bit. randomPacking draws event rows in random order.
func ascendingRows(p *Problem) *Problem {
	q := &Problem{NumRows: p.NumRows, B: append([]float64(nil), p.B...)}
	for j := 0; j < p.NumCols(); j++ {
		rs := append([]int32(nil), p.Col(j)...)
		sort.Slice(rs, func(a, b int) bool { return rs[a] < rs[b] })
		q.addColumn32(p.C[j], rs)
	}
	return q
}

// TestDevexTrajectoryPinned is TestDefaultTrajectoryPinned under forced
// Devex pricing: the default configuration auto-selects Dantzig at
// m = 1080, so without this pin no Devex pivot — its pivot-row update, its
// reference weights, its pricing scan — is fixed anywhere. Both the cold
// solve and the warm chain's primal finish price by Devex, at every worker
// count, with the pooled passes forced on by parallelThreshold 1.
func TestDevexTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	fixtures := []trajectoryFixture{
		{
			seed:       4099,
			cold:       trajectoryPin{obj: 0x4065f736747aef6a, iters: 566, hash: 0xa40927c362260cc6},
			warm:       trajectoryPin{obj: 0x40620b3b948b25ba, iters: 0, hash: 0x4426f8abb3bacaf5},
			warmPivots: 130,
		},
		{
			seed:       8209,
			cold:       trajectoryPin{obj: 0x406716dae01e4873, iters: 575, hash: 0xe5fb437e2e64307b},
			warm:       trajectoryPin{obj: 0x40633f0481c99bfc, iters: 0, hash: 0xbf4ed9aee0cc819f},
			warmPivots: 113,
		},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2} {
			rng := xrand.New(fx.seed)
			const users, events = 1000, 80
			p := ascendingRows(randomPacking(rng, users, events, 6))
			cfg := Revised{Workers: workers, tuning: tuning{pricing: pricingDevex, parallelThreshold: 1}}
			cold, warm, warmPivots := runTrajectoryChain(t, rng, p, cfg, users, events)
			if cold != fx.cold || warm != fx.warm || warmPivots != fx.warmPivots {
				t.Errorf("seed=%d workers=%d: trajectory moved:\n got cold=%#v warm=%#v warmPivots=%d\nwant cold=%#v warm=%#v warmPivots=%d",
					fx.seed, workers, cold, warm, warmPivots, fx.cold, fx.warm, fx.warmPivots)
			}
		}
	}
}
