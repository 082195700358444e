package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
)

// TestConfigErrorsTyped pins the typed-error contract of Serve/NewEngine:
// invalid configurations come back as *ConfigError instead of panics (nil
// instance) or silent defaulting (S ≤ 0).
func TestConfigErrorsTyped(t *testing.T) {
	in := testInstance(t, 3, 30, 8)
	var ce *ConfigError

	if _, err := NewEngine(nil, Options{Shards: 1}); !errors.As(err, &ce) {
		t.Errorf("nil instance: err = %v, want *ConfigError", err)
	}
	if _, err := Serve(nil, nil, Options{Shards: 1}); !errors.As(err, &ce) {
		t.Errorf("Serve nil instance: err = %v, want *ConfigError", err)
	}
	for _, s := range []int{0, -1} {
		if _, err := Serve(in, nil, Options{Shards: s}); !errors.As(err, &ce) || ce.Field != "Shards" {
			t.Errorf("Shards=%d: err = %v, want *ConfigError on Shards", s, err)
		}
	}
	if _, err := Serve(in, nil, Options{Shards: 2, Batch: -5}); !errors.As(err, &ce) || ce.Field != "Batch" {
		t.Errorf("negative batch: err = %v, want *ConfigError on Batch", err)
	}
	if _, err := Serve(in, nil, Options{Shards: 2, CacheSize: -1}); !errors.As(err, &ce) || ce.Field != "CacheSize" {
		t.Errorf("negative cache size: err = %v, want *ConfigError on CacheSize", err)
	}
	for _, tc := range []struct {
		field      string
		tau, guard float64
	}{
		{"Tau", math.NaN(), 0.25},
		{"Tau", math.NaN(), 0},
		{"Guard", 0.5, math.NaN()},
		{"Guard", 0.5, -0.1},
		{"Guard", 0.5, 1.5},
	} {
		if _, err := NewEngine(in, Options{Shards: 2, Tau: tc.tau, Guard: tc.guard}); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Tau=%v Guard=%v: err = %v, want *ConfigError on %s", tc.tau, tc.guard, err, tc.field)
		}
	}
	if (&ConfigError{Field: "f", Reason: "r"}).Error() == "" || (&LeaseError{Event: 1, Leased: 3, Capacity: 2}).Error() == "" {
		t.Error("error strings empty")
	}
	// a broken instance is a configuration error, not a panic
	bad := testInstance(t, 3, 10, 4)
	bad.Beta = 2
	if _, err := Serve(bad, nil, Options{Shards: 1}); !errors.As(err, &ce) {
		t.Errorf("broken instance: err = %v, want *ConfigError", err)
	}
}

// repeatBidInstance builds an instance whose users draw their bid sets from
// a handful of fixed patterns: many arrivals with identical open sets and
// capacities.
func repeatBidInstance(t *testing.T, nu int) *model.Instance {
	t.Helper()
	patterns := [][]int{
		{0, 1, 2}, {1, 3, 5}, {2, 4}, {0, 3, 6, 7}, {5, 6},
	}
	in := &model.Instance{
		Conflicts: func(v, w int) bool { return v+w == 7 },
		Interest: func(u, v int) float64 {
			return float64((u*31+v*17)%97) / 97
		},
		Beta: 0.7,
	}
	for v := 0; v < 8; v++ {
		in.Events = append(in.Events, model.Event{Capacity: nu}) // never exhausted
	}
	for u := 0; u < nu; u++ {
		in.Users = append(in.Users, model.User{
			Capacity: 2 + u%2,
			Bids:     append([]int(nil), patterns[u%len(patterns)]...),
			Degree:   u % nu,
		})
	}
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestServeWithCacheDeterministicAndHitting pins the sharded hot path on the
// repeat-bid workload: with the deprecated CacheSize set, results stay
// feasible and bit-identical across worker counts and reruns for
// S ∈ {1,2,4,8}.
func TestServeWithCacheDeterministicAndHitting(t *testing.T) {
	in := repeatBidInstance(t, 120)
	order := arrivalOrder(5, in.NumUsers())
	for _, s := range []int{1, 2, 4, 8} {
		opt := Options{Shards: s, Batch: 16, Seed: 42, CacheSize: 256, Workers: 1}
		base, err := Serve(in, order, opt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("S=%d", s)
		modeltest.RequireFeasible(t, label, in, base.Arrangement)
		for _, workers := range []int{2, 8, 0} {
			opt.Workers = workers
			got, err := Serve(in, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			modeltest.RequireEqual(t, fmt.Sprintf("%s workers=%d", label, workers), base.Arrangement, got.Arrangement)
		}
	}
}

// TestServeCacheMatchesUncached pins that the deprecated CacheSize is inert
// end to end on the standard synthetic workload: same decisions with and
// without it.
func TestServeCacheMatchesUncached(t *testing.T) {
	in := testInstance(t, 11, 200, 30)
	order := arrivalOrder(5, in.NumUsers())
	for _, s := range []int{1, 4} {
		plain, err := Serve(in, order, Options{Shards: s, Batch: 32, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := Serve(in, order, Options{Shards: s, Batch: 32, Seed: 42, CacheSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireEqual(t, fmt.Sprintf("S=%d cached vs plain", s), plain.Arrangement, cached.Arrangement)
	}
}

// TestEngineCancelAndRearrive white-boxes the live-serving path: ArriveOn /
// CancelOn / re-ArriveOn keep loads, utility accounting and the merged
// arrangement consistent.
func TestEngineCancelAndRearrive(t *testing.T) {
	in := testInstance(t, 7, 80, 12)
	e, err := NewEngine(in, Options{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var served []int
	for u := 0; u < in.NumUsers(); u++ {
		si := e.ShardOf(u)
		if len(e.ArriveOn(si, u)) > 0 {
			served = append(served, u)
		}
	}
	if len(served) == 0 {
		t.Fatal("no user got any events")
	}
	u := served[len(served)/2]
	si := e.ShardOf(u)
	got := e.Assignment(si, u)
	preLoad := make(map[int]int, len(got))
	for _, v := range got {
		preLoad[v] = e.EventLoad(v)
	}
	preUtil := e.ShardUtility(si)

	freed := e.CancelOn(si, u)
	if len(freed) != len(got) {
		t.Fatalf("cancel freed %v, assignment was %v", freed, got)
	}
	for _, v := range freed {
		if e.EventLoad(v) != preLoad[v]-1 {
			t.Errorf("event %d load %d after cancel, want %d", v, e.EventLoad(v), preLoad[v]-1)
		}
	}
	if e.ShardUtility(si) >= preUtil {
		t.Errorf("shard utility %v not reduced from %v by cancel", e.ShardUtility(si), preUtil)
	}
	if len(e.Assignment(si, u)) != 0 {
		t.Error("assignment survives cancel")
	}
	if e.CancelOn(si, u) != nil {
		t.Error("double cancel freed seats")
	}

	// the freed seats are grantable again
	again := e.ArriveOn(si, u)
	if len(again) == 0 {
		t.Fatal("re-arrival after cancel got nothing")
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	modeltest.RequireFeasible(t, "after cancel/re-arrive", in, snap)

	// per-shard utilities must sum to the merged utility
	sum := 0.0
	for s := 0; s < e.Shards(); s++ {
		sum += e.ShardUtility(s)
	}
	if total := model.Utility(in, snap); !closeTo(sum, total, 1e-6) {
		t.Errorf("per-shard utilities sum to %v, merged utility %v", sum, total)
	}
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestEngineMatchesServe pins the refactor: driving the engine manually with
// Serve's batch schedule reproduces Serve bit-for-bit.
func TestEngineMatchesServe(t *testing.T) {
	in := testInstance(t, 11, 150, 25)
	order := arrivalOrder(3, in.NumUsers())
	opt := Options{Shards: 4, Batch: 32, Seed: 42, CacheSize: 128}

	want, err := Serve(in, order, opt)
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := e.Batch()
	for start := 0; start < len(order); start += b {
		end := min(start+b, len(order))
		e.DispatchBatch(order[start:end])
		if end < len(order) && e.Shards() > 1 {
			if _, err := e.RenewLeases(order[end:min(end+b, len(order))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	modeltest.RequireEqual(t, "engine vs Serve", want.Arrangement, got.Arrangement)
	if got.Utility != want.Utility || got.Epochs != want.Epochs ||
		got.LeaseRenewals != want.LeaseRenewals || got.MovedSeats != want.MovedSeats {
		t.Errorf("engine result %+v differs from Serve %+v", got, want)
	}
}
