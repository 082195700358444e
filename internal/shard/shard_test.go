package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
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
	res, err := Serve(in, order, Options{Shards: 1, Tau: 0.4, Guard: 0.3})
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

	for _, guard := range []float64{0, 0.25} {
		for _, s := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("guard=%v/S=%d", guard, s)
			opt := Options{Shards: s, Batch: 32, Seed: 42, Tau: 0.5, Guard: guard}

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
// a second instance under the demand renewer: feasibility through the shared
// oracle, bit-identical results across worker counts.
func TestLeasePoliciesFeasibleAndDeterministic(t *testing.T) {
	in := testInstance(t, 29, 200, 30)
	order := arrivalOrder(5, in.NumUsers())
	for _, s := range []int{2, 8} {
		label := fmt.Sprintf("S=%d", s)
		opt := Options{Shards: s, Batch: 32, Seed: 42, Workers: 1}
		base, err := Serve(in, order, opt)
		if err != nil {
			t.Fatal(err)
		}
		modeltest.RequireFeasible(t, label, in, base.Arrangement)
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

// TestDemandLeaseClosesUtilityGap pins the headline of the demand-aware
// renewal: on the mid-size synthetic workload where the even split lost
// ≈10% of single-shard utility at S=8, the demand split must stay within 3%
// (measured ≈0.9995).
func TestDemandLeaseClosesUtilityGap(t *testing.T) {
	in := testInstance(t, 13, 300, 40)
	order := arrivalOrder(9, in.NumUsers())
	single, err := Serve(in, order, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(in, order, Options{Shards: 8, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Utility / single.Utility
	t.Logf("S=8: %.4f of single shard (moved %d seats)", ratio, res.MovedSeats)
	if ratio < 0.97 {
		t.Errorf("S=8: utility %.4f of single shard, want ≥ 0.97", ratio)
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

// TestRenewPoliciesInvariant is the renewal white-box: from random lease
// tables and loads, renewal must restore Σ_s budget[s][v] = cv exactly and
// never revoke a consumed seat.
func TestRenewPoliciesInvariant(t *testing.T) {
	in := testInstance(t, 37, 120, 15)
	rng := xrand.New(2)
	const s = 4
	for trial := 0; trial < 20; trial++ {
		budgets := make([][]int, s)
		loads := make([][]int, s)
		for si := 0; si < s; si++ {
			budgets[si] = make([]int, in.NumEvents())
			loads[si] = make([]int, in.NumEvents())
		}
		for v := 0; v < in.NumEvents(); v++ {
			cv := in.Events[v].Capacity
			for k := 0; k < cv; k++ {
				budgets[rng.Intn(s)][v]++
			}
			for si := 0; si < s; si++ {
				if budgets[si][v] > 0 {
					loads[si][v] = rng.Intn(budgets[si][v] + 1)
				}
			}
		}
		var next []int
		for u := 0; u < in.NumUsers(); u++ {
			if rng.Bool(0.3) {
				next = append(next, u)
			}
		}
		r := newLeaseRenewer(in, budgets, loads, 7)
		moved := r.renew(trial+1, next)
		if moved < 0 {
			t.Fatalf("trial %d: negative moved-seat count %d", trial, moved)
		}
		for v := 0; v < in.NumEvents(); v++ {
			sum := 0
			for si := 0; si < s; si++ {
				if budgets[si][v] < loads[si][v] {
					t.Fatalf("trial %d: shard %d event %d: budget %d below load %d",
						trial, si, v, budgets[si][v], loads[si][v])
				}
				sum += budgets[si][v]
			}
			if sum != in.Events[v].Capacity {
				t.Fatalf("trial %d: event %d leases sum to %d, capacity %d",
					trial, v, sum, in.Events[v].Capacity)
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

// TestLeaseDemandPinned pins, absolutely, Serve under the demand renewer:
// for S ∈ {1,2,4,8} on a Meetup and a Synthetic instance, with and without
// the reservation rule (Tau 0.5, Guard 0.25), an FNV-1a hash over the
// arrangement, the utility's bits, the moved seats and the renewal count. A
// change to the tally, the largest-remainder split, the even fallback's
// rotation, the moved-seat accounting or the open-bid filter moves a row.
// amd64 only.
func TestLeaseDemandPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("serving bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	meetup, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := workload.Synthetic(workload.SyntheticConfig{Seed: 2, NumUsers: 600, NumEvents: 60})
	if err != nil {
		t.Fatal(err)
	}
	greedy := Options{}
	reserve := Options{Tau: 0.5, Guard: 0.25}
	rows := []struct {
		name string
		in   *model.Instance
		rule Options
		s    int
		want uint64
	}{
		{"meetup", meetup, greedy, 1, 0x77769b0f83c3a156},
		{"meetup", meetup, greedy, 2, 0x23854dbffe2ed30c},
		{"meetup", meetup, greedy, 4, 0x93a4bab061962208},
		{"meetup", meetup, greedy, 8, 0xfe1d6ac1630b65c4},
		{"synthetic", synthetic, greedy, 1, 0xb6e9ea1734f35046},
		{"synthetic", synthetic, greedy, 2, 0x1852b9f78c40271c},
		{"synthetic", synthetic, greedy, 4, 0xfef6503376c9014c},
		{"synthetic", synthetic, greedy, 8, 0xfe68b66153ef57e7},
		{"meetup/reserve", meetup, reserve, 1, 0x0f9a3c10918e9896},
		{"meetup/reserve", meetup, reserve, 2, 0xd1653787368ba18c},
		{"meetup/reserve", meetup, reserve, 4, 0x78e971d840eda39b},
		{"meetup/reserve", meetup, reserve, 8, 0x629c705e113c66ca},
		{"synthetic/reserve", synthetic, reserve, 1, 0x140117fa17544607},
		{"synthetic/reserve", synthetic, reserve, 2, 0xa77ab376a1bc93ad},
		{"synthetic/reserve", synthetic, reserve, 4, 0x1957e471cc054524},
		{"synthetic/reserve", synthetic, reserve, 8, 0xf32e3ed7b5cfc52b},
	}
	for _, row := range rows {
		opt := row.rule
		opt.Shards, opt.Batch, opt.Seed, opt.Workers = row.s, 16, 7, 1
		res, err := Serve(row.in, arrivalOrder(3, row.in.NumUsers()), opt)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for u, set := range res.Arrangement.Sets {
			put(uint64(u))
			put(uint64(len(set)))
			for _, v := range set {
				put(uint64(v))
			}
		}
		put(math.Float64bits(res.Utility))
		put(uint64(res.MovedSeats))
		put(uint64(res.LeaseRenewals))
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s S=%d: hash %#x, want %#x (utility=%v moved=%d renewals=%d)",
				row.name, row.s, got, row.want, res.Utility, res.MovedSeats, res.LeaseRenewals)
		}
	}
}
