package shard

import (
	"math"
	"reflect"
	"testing"

	"github.com/ebsn/igepa/internal/core"
)

// TestEngineLiveBoundRebid pins Engine.NoteBidUpdate: after an undecided
// user's bids are replaced in place (the HTTP layer's bid-update path), the
// next UpdateBound must price the new bid set — the bound matches a cold
// planner built on the current instance state.
func TestEngineLiveBoundRebid(t *testing.T) {
	in := testInstance(t, 29, 70, 14)
	e, err := NewEngine(in, Options{Shards: 2, Seed: 1, LiveBound: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Replace user 0's bids in place, the way the server's stop-the-world
	// bid-update path does: mutate, rebuild caches, notify the engine.
	in.Users[0].Bids = append([]int(nil), in.Users[0].Bids[:1]...)
	in.RebuildBidders()
	in.Weights()
	e.RefreshWeights()
	e.NoteBidUpdate(0)

	got, err := e.UpdateBound()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.NewPlanner(in.Clone(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if want := cold.Objective(); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("bound after re-bid %v, cold planner on current instance %v", got, want)
	}
}

// TestServeLiveBound pins the live LP bound: enabled, it never changes
// decisions, updates once per batch, and its trace is a valid non-increasing
// upper bound on the remaining opportunity (no cancels in a replay, so
// capacity and bids only shrink).
func TestServeLiveBound(t *testing.T) {
	in := testInstance(t, 11, 200, 30)
	order := arrivalOrder(5, in.NumUsers())
	opt := Options{Shards: 4, Batch: 32, Seed: 9}

	plain, err := Serve(in, order, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Bound != nil {
		t.Fatal("Bound set without Options.LiveBound")
	}

	opt.LiveBound = true
	res, err := Serve(in, order, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Arrangement.Equal(plain.Arrangement) || res.Utility != plain.Utility {
		t.Fatal("live bound changed serving decisions")
	}
	b := res.Bound
	if b == nil {
		t.Fatal("Options.LiveBound produced no Bound")
	}
	if b.Errors != 0 {
		t.Fatalf("bound updates failed %d times", b.Errors)
	}
	if b.Updates != res.Epochs {
		t.Fatalf("bound updated %d times over %d epochs", b.Updates, res.Epochs)
	}
	if len(b.Trace) != b.Updates || len(b.UpdateLatencies) != b.Updates {
		t.Fatalf("trace/latency lengths %d/%d, want %d", len(b.Trace), len(b.UpdateLatencies), b.Updates)
	}
	prev := b.Trace[0]
	for i, v := range b.Trace {
		if v > prev+1e-6 {
			t.Fatalf("bound increased at update %d: %v -> %v (no cancels in a replay)", i, prev, v)
		}
		prev = v
	}
	if b.Remaining != b.Trace[len(b.Trace)-1] {
		t.Fatalf("Remaining %v != last trace entry %v", b.Remaining, b.Trace[len(b.Trace)-1])
	}
	// The remaining bound plus committed utility upper-bounds... at least
	// must stay non-negative and finite.
	if !(b.Remaining >= -1e-9) {
		t.Fatalf("negative remaining bound %v", b.Remaining)
	}
	if b.Solver.WarmSolves == 0 {
		t.Errorf("no bound update took the warm path: %+v", b.Solver)
	}
}

// TestServeLiveBoundWorkerInvariance pins that the bound trace, like the
// decisions, is a pure function of (instance, order, Options).
func TestServeLiveBoundWorkerInvariance(t *testing.T) {
	in := testInstance(t, 13, 160, 24)
	order := arrivalOrder(7, in.NumUsers())
	run := func(workers int) []float64 {
		res, err := Serve(in, order, Options{Shards: 4, Batch: 32, Seed: 3, Workers: workers, LiveBound: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Bound.Trace
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Fatalf("bound trace differs between Workers=1 and Workers=%d", w)
		}
	}
}

// TestEngineLiveBoundCancel drives the engine directly: a cancellation
// returns its seats and bids to the shadow problem, so the bound recovers.
func TestEngineLiveBoundCancel(t *testing.T) {
	in := testInstance(t, 17, 80, 15)
	e, err := NewEngine(in, Options{Shards: 2, Seed: 1, LiveBound: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if !e.BoundEnabled() {
		t.Fatal("LiveBound not enabled")
	}
	initial := e.BoundStats().Remaining
	// Serve a user who gets something.
	var served, shard int
	var got []int
	for u := 0; u < in.NumUsers(); u++ {
		si := e.ShardOf(u)
		if set := e.ArriveOn(si, u); len(set) > 0 {
			served, shard, got = u, si, set
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("nobody was granted anything")
	}
	after, err := e.UpdateBound()
	if err != nil {
		t.Fatal(err)
	}
	if after > initial+1e-9 {
		t.Fatalf("bound rose after a grant: %v -> %v", initial, after)
	}
	// Cancel: seats and bids return; the bound must not sit below the
	// post-grant value (the problem only regained slack).
	e.CancelOn(shard, served)
	restored, err := e.UpdateBound()
	if err != nil {
		t.Fatal(err)
	}
	if restored < after-1e-6 {
		t.Fatalf("bound fell after cancel: %v -> %v", after, restored)
	}
	// The restored problem is the original: bounds agree to solver round-off.
	if diff := restored - initial; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("bound after cancel %v, initially %v", restored, initial)
	}
	st := e.BoundStats()
	if st.Updates != 2 || st.Errors != 0 {
		t.Fatalf("unexpected bound stats %+v", st)
	}
}

// TestLiveBoundDominatesFinalUtility sanity-checks the bound semantics on a
// full replay: at every epoch, committed-so-far + remaining bound must be
// ≥ the final total utility (it upper-bounds the best completion, and the
// serving run is one completion).
func TestLiveBoundDominatesFinalUtility(t *testing.T) {
	in := testInstance(t, 23, 150, 20)
	order := arrivalOrder(2, in.NumUsers())
	batch := 25
	res, err := Serve(in, order, Options{Shards: 2, Batch: batch, Seed: 4, LiveBound: true})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute committed utility per epoch from the final arrangement: a
	// user's grant never changes after their batch (no cancels here).
	committed := 0.0
	wc := in.Weights()
	for e := 0; e < res.Epochs; e++ {
		lo, hi := e*batch, min((e+1)*batch, len(order))
		for _, u := range order[lo:hi] {
			for _, v := range res.Arrangement.Sets[u] {
				committed += wc.Of(u, v)
			}
		}
		if committed+res.Bound.Trace[e] < res.Utility-1e-6 {
			t.Fatalf("epoch %d: committed %v + bound %v < final utility %v",
				e, committed, res.Bound.Trace[e], res.Utility)
		}
	}
}
