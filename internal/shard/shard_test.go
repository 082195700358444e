package shard

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
	"github.com/ebsn/igepa/internal/online"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

func testInstance(t testing.TB, seed int64, nu, nv int) *model.Instance {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		Seed: seed, NumEvents: nv, NumUsers: nu,
		MaxEventCap: 10, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func arrivalOrder(seed int64, nu int) []int {
	return xrand.New(seed).Perm(nu)
}

// TestParsePolicyNames pins the flag parsers against the String names: every
// kind and policy round-trips, "" is the default lease, anything else errs.
func TestParsePolicyNames(t *testing.T) {
	for _, k := range []PlannerKind{PlannerGreedy, PlannerThreshold} {
		if got, err := ParsePlannerKind(k.String()); err != nil || got != k {
			t.Errorf("ParsePlannerKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, l := range []LeasePolicy{LeaseDemand, LeaseLP} {
		if got, err := ParseLeasePolicy(l.String()); err != nil || got != l {
			t.Errorf("ParseLeasePolicy(%q) = %v, %v", l.String(), got, err)
		}
	}
	if got, err := ParseLeasePolicy(""); err != nil || got != LeaseDemand {
		t.Errorf(`ParseLeasePolicy("") = %v, %v, want demand`, got, err)
	}
	for _, bad := range []string{"", "nope", "Greedy", "PlannerKind(7)"} {
		if _, err := ParsePlannerKind(bad); err == nil {
			t.Errorf("ParsePlannerKind(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"nope", "LP", "LeasePolicy(9)", "even"} {
		_, err := ParseLeasePolicy(bad)
		if err == nil {
			t.Errorf("ParseLeasePolicy(%q) accepted", bad)
		} else if msg := err.Error(); !strings.Contains(msg, "demand") || !strings.Contains(msg, "lp") {
			t.Errorf("ParseLeasePolicy(%q) error %q does not name the policies", bad, msg)
		}
	}
}

// TestSingleShardMatchesOnlineRun pins the degenerate case: one shard with
// any batch size is exactly the unsharded online planner — the lease is the
// full capacity table and renewals are no-ops.
func TestSingleShardMatchesOnlineRun(t *testing.T) {
	in := testInstance(t, 7, 150, 25)
	order := arrivalOrder(3, in.NumUsers())

	want, err := online.Run(in, order, online.NewGreedy(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 16, 1000} {
		res, err := Serve(in, order, Options{Shards: 1, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireEqual(t, fmt.Sprintf("batch=%d", batch), want, res.Arrangement)
	}

	tw, err := online.Run(in, order, online.NewThreshold(in, 0.4, 0.3, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(in, order, Options{Shards: 1, Planner: PlannerThreshold, Tau: 0.4, Guard: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	modeltest.RequireEqual(t, "threshold", tw, res.Arrangement)
}

// TestServeFeasibleAndDeterministic is the acceptance-criteria test: for
// every shard count S ∈ {1,2,4,8} and several worker counts, the merged
// arrangement passes the shared invariant oracle and Instance.Check holds,
// and the result is bit-identical across worker counts and reruns of the
// same seed.
func TestServeFeasibleAndDeterministic(t *testing.T) {
	in := testInstance(t, 11, 200, 30)
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
	order := arrivalOrder(5, in.NumUsers())

	for _, kind := range []PlannerKind{PlannerGreedy, PlannerThreshold} {
		for _, s := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%v/S=%d", kind, s)
			opt := Options{Shards: s, Batch: 32, Seed: 42, Planner: kind, Tau: 0.5, Guard: 0.25}

			opt.Workers = 1
			base, err := Serve(in, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			modeltest.RequireFeasible(t, label, in, base.Arrangement)

			for _, workers := range []int{2, 3, 8, 0} {
				opt.Workers = workers
				got, err := Serve(in, order, opt)
				if err != nil {
					t.Fatal(err)
				}
				modeltest.RequireEqual(t, fmt.Sprintf("%s workers=%d", label, workers), base.Arrangement, got.Arrangement)
			}

			// rerun with identical options: bit-identical
			opt.Workers = 0
			again, err := Serve(in, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			modeltest.RequireEqual(t, label+" rerun", base.Arrangement, again.Arrangement)

			if s == 1 && base.LeaseRenewals != 0 {
				t.Errorf("%s: single shard performed %d lease renewals", label, base.LeaseRenewals)
			}
			total := 0
			for _, n := range base.Arrivals {
				total += n
			}
			if total != len(order) {
				t.Errorf("%s: %d arrivals served, want %d", label, total, len(order))
			}
		}
	}
}

// TestUtilityDegradesGracefully bounds the sharding cost: on a mid-size
// synthetic workload the 8-shard utility stays within a constant factor of
// the single-shard planner and of the offline LP upper bound. The floors
// are pinned well below the measured ratios (≈0.90 vs single-shard,
// ≈0.73 vs LP bound at S=8) so they fail only on real regressions.
func TestUtilityDegradesGracefully(t *testing.T) {
	in := testInstance(t, 13, 300, 40)
	order := arrivalOrder(9, in.NumUsers())

	single, err := Serve(in, order, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := core.LPPacking(in, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := lpRes.LPObjective
	if single.Utility > bound+1e-9 {
		t.Fatalf("single-shard utility %v exceeds LP bound %v", single.Utility, bound)
	}

	for _, s := range []int{2, 4, 8} {
		res, err := Serve(in, order, Options{Shards: s, Batch: 32})
		if err != nil {
			t.Fatal(err)
		}
		if res.Utility > bound+1e-9 {
			t.Fatalf("S=%d utility %v exceeds LP bound %v", s, res.Utility, bound)
		}
		ratio := res.Utility / single.Utility
		t.Logf("S=%d: utility=%.4f (%.3f of single-shard, %.3f of LP bound), moved=%d seats over %d renewals",
			s, res.Utility, ratio, res.Utility/bound, res.MovedSeats, res.LeaseRenewals)
		if ratio < 0.80 {
			t.Errorf("S=%d: utility degraded to %.3f of single-shard, want ≥ 0.80", s, ratio)
		}
		if res.Utility/bound < 0.50 {
			t.Errorf("S=%d: utility %.3f of LP bound, want ≥ 0.50", s, res.Utility/bound)
		}
	}
}

// TestLeasePoliciesFeasibleAndDeterministic extends the acceptance suite to
// every lease policy: feasibility through the shared oracle, bit-identical
// results across worker counts and reruns.
func TestLeasePoliciesFeasibleAndDeterministic(t *testing.T) {
	in := testInstance(t, 29, 200, 30)
	order := arrivalOrder(5, in.NumUsers())
	for _, pol := range []LeasePolicy{LeaseDemand, LeaseLP} {
		for _, s := range []int{2, 8} {
			label := fmt.Sprintf("%v/S=%d", pol, s)
			opt := Options{Shards: s, Batch: 32, Seed: 42, Lease: pol, Workers: 1}
			base, err := Serve(in, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			modeltest.RequireFeasible(t, label, in, base.Arrangement)
			if pol == LeaseLP && base.LeaseSolves.WarmSolves == 0 {
				t.Errorf("%s: lease LP never warm-solved: %+v", label, base.LeaseSolves)
			}
			for _, workers := range []int{3, 0} {
				opt.Workers = workers
				got, err := Serve(in, order, opt)
				if err != nil {
					t.Fatal(err)
				}
				modeltest.RequireEqual(t, fmt.Sprintf("%s workers=%d", label, workers), base.Arrangement, got.Arrangement)
			}
		}
	}
}

// TestDemandLeaseClosesUtilityGap pins the headline of the demand-aware
// renewal: on the mid-size synthetic workload where the even split lost
// ≈10% of single-shard utility at S=8, the demand and LP policies must stay
// within 3% (measured: demand ≈0.9995, LP ≈1.047 — the LP split can beat
// the single planner by steering seats toward upcoming high-value bidders).
func TestDemandLeaseClosesUtilityGap(t *testing.T) {
	in := testInstance(t, 13, 300, 40)
	order := arrivalOrder(9, in.NumUsers())
	single, err := Serve(in, order, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []LeasePolicy{LeaseDemand, LeaseLP} {
		res, err := Serve(in, order, Options{Shards: 8, Batch: 32, Lease: pol})
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.Utility / single.Utility
		t.Logf("S=8 %v: %.4f of single shard (moved %d seats, lease solves %+v)",
			pol, ratio, res.MovedSeats, res.LeaseSolves)
		if ratio < 0.97 {
			t.Errorf("S=8 %v: utility %.4f of single shard, want ≥ 0.97", pol, ratio)
		}
	}
}

// TestRecordLatency pins the latency plumbing: samples only for served
// users, all non-negative, absent unless requested.
func TestRecordLatency(t *testing.T) {
	in := testInstance(t, 31, 80, 12)
	order := arrivalOrder(4, in.NumUsers())
	half := order[:40]
	res, err := Serve(in, half, Options{Shards: 4, RecordLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != in.NumUsers() {
		t.Fatalf("latencies length %d, want %d", len(res.Latencies), in.NumUsers())
	}
	served := make(map[int]bool, len(half))
	for _, u := range half {
		served[u] = true
		if res.Latencies[u] <= 0 {
			t.Errorf("served user %d has latency %v", u, res.Latencies[u])
		}
	}
	for u, l := range res.Latencies {
		if !served[u] && l != 0 {
			t.Errorf("unserved user %d has latency %v", u, l)
		}
	}
	res, err = Serve(in, half, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies != nil {
		t.Error("latencies recorded without RecordLatency")
	}
}

func TestLeasePolicyString(t *testing.T) {
	if LeaseDemand.String() != "demand" || LeaseLP.String() != "lp" ||
		LeasePolicy(9).String() == "" {
		t.Error("LeasePolicy.String broken")
	}
}

// TestRenewPoliciesInvariant extends the renewal white-box to the demand and
// LP policies: whatever the split rule, renewal must restore
// Σ_s budget[s][v] = cv exactly and never revoke a consumed seat.
func TestRenewPoliciesInvariant(t *testing.T) {
	in := testInstance(t, 37, 120, 15)
	rng := xrand.New(2)
	const s = 4
	for _, pol := range []LeasePolicy{LeaseDemand, LeaseLP} {
		for trial := 0; trial < 20; trial++ {
			budgets := make([][]int, s)
			planners := make([]shardPlanner, s)
			for si := 0; si < s; si++ {
				budgets[si] = make([]int, in.NumEvents())
				planners[si] = shardPlanner{loads: make([]int, in.NumEvents())}
			}
			for v := 0; v < in.NumEvents(); v++ {
				cv := in.Events[v].Capacity
				for k := 0; k < cv; k++ {
					budgets[rng.Intn(s)][v]++
				}
				for si := 0; si < s; si++ {
					if budgets[si][v] > 0 {
						planners[si].loads[v] = rng.Intn(budgets[si][v] + 1)
					}
				}
			}
			var next []int
			for u := 0; u < in.NumUsers(); u++ {
				if rng.Bool(0.3) {
					next = append(next, u)
				}
			}
			r := newLeaseRenewer(in, budgets, planners, Options{Shards: s, Lease: pol, Seed: 7})
			moved := r.renew(trial+1, next)
			r.close()
			if moved < 0 {
				t.Fatalf("%v trial %d: negative moved-seat count %d", pol, trial, moved)
			}
			for v := 0; v < in.NumEvents(); v++ {
				sum := 0
				for si := 0; si < s; si++ {
					if budgets[si][v] < planners[si].loads[v] {
						t.Fatalf("%v trial %d: shard %d event %d: budget %d below load %d",
							pol, trial, si, v, budgets[si][v], planners[si].loads[v])
					}
					sum += budgets[si][v]
				}
				if sum != in.Events[v].Capacity {
					t.Fatalf("%v trial %d: event %d leases sum to %d, capacity %d",
						pol, trial, v, sum, in.Events[v].Capacity)
				}
			}
		}
	}
}

// TestServeRejectsBadOrders mirrors online.Run's arrival validation.
func TestServeRejectsBadOrders(t *testing.T) {
	in := testInstance(t, 19, 20, 8)
	if _, err := Serve(in, []int{0, 0}, Options{Shards: 2}); err == nil {
		t.Error("duplicate arrival accepted")
	}
	if _, err := Serve(in, []int{in.NumUsers()}, Options{Shards: 2}); err == nil {
		t.Error("out-of-range arrival accepted")
	}
	if _, err := Serve(in, []int{-1}, Options{Shards: 2}); err == nil {
		t.Error("negative arrival accepted")
	}
	res, err := Serve(in, nil, Options{Shards: 2})
	if err != nil || res.Arrangement.Size() != 0 {
		t.Errorf("empty order: res=%v err=%v", res, err)
	}
	if _, err := Serve(in, []int{0}, Options{Shards: 2, Planner: PlannerKind(99)}); err == nil {
		t.Error("unknown planner kind accepted")
	}
}

// TestShardOfIsPureFunction pins the partition contract: shard membership
// depends only on (seed, user, shards), is always in range, and spreads
// users across all shards.
func TestShardOfIsPureFunction(t *testing.T) {
	const s = 8
	counts := make([]int, s)
	for u := 0; u < 4096; u++ {
		got := ShardOf(33, u, s)
		if got < 0 || got >= s {
			t.Fatalf("ShardOf(33, %d, %d) = %d out of range", u, s, got)
		}
		if again := ShardOf(33, u, s); again != got {
			t.Fatalf("ShardOf not stable for user %d: %d then %d", u, got, again)
		}
		counts[got]++
	}
	for si, n := range counts {
		if n < 4096/s/2 || n > 4096/s*2 {
			t.Errorf("shard %d holds %d of 4096 users — partition badly skewed", si, n)
		}
	}
	if ShardOf(1, 5, 1) != 0 || ShardOf(1, 5, 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}

// TestZeroCapacityEventsNeverAssigned runs the sharded planner over an
// instance with zero-capacity events mixed in: leases of zero capacity are
// zero everywhere, so no shard may grant a seat.
func TestZeroCapacityEventsNeverAssigned(t *testing.T) {
	in := testInstance(t, 23, 60, 10)
	for v := 0; v < in.NumEvents(); v += 2 {
		in.Events[v].Capacity = 0
	}
	order := arrivalOrder(2, in.NumUsers())
	for _, s := range []int{1, 3} {
		res, err := Serve(in, order, Options{Shards: s, Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireFeasible(t, fmt.Sprintf("S=%d", s), in, res.Arrangement)
		load := res.Arrangement.Loads(in.NumEvents())
		for v := 0; v < in.NumEvents(); v += 2 {
			if load[v] != 0 {
				t.Errorf("S=%d: zero-capacity event %d has %d attendees", s, v, load[v])
			}
		}
	}
}

// TestLeaseLPPinned pins, absolutely, a LeaseLP replay: the split LP is
// cold-solved once and re-solved warm at every renewal, so the utility's
// bits, the renewal count and the moved seats fix its whole solve chain.
// amd64 only.
func TestLeaseLPPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("lease-LP bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	in := testInstance(t, 29, 200, 30)
	res, err := Serve(in, arrivalOrder(5, in.NumUsers()), Options{Shards: 4, Batch: 16, Seed: 7, Lease: LeaseLP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantUtility  = 0x40522e879b99c8ef
		wantRenewals = 12
		wantMoved    = 127
		wantWarm     = 11
	)
	if u := math.Float64bits(res.Utility); u != wantUtility || res.LeaseRenewals != wantRenewals ||
		res.MovedSeats != wantMoved || res.LeaseSolves.WarmSolves != wantWarm {
		t.Errorf("lease LP replay moved: got utility=%#x renewals=%d moved=%d warm=%d, want %#x/%d/%d/%d",
			u, res.LeaseRenewals, res.MovedSeats, res.LeaseSolves.WarmSolves,
			uint64(wantUtility), wantRenewals, wantMoved, wantWarm)
	}
}
