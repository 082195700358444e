package shard

import (
	"fmt"
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
)

// newClusterShard builds shard index's single-shard engine of a width-wide
// cluster over in.
func newClusterShard(t testing.TB, in *model.Instance, opt Options, width, index int) *Engine {
	t.Helper()
	opt.Shards = 1
	opt.ClusterShards = width
	opt.ClusterIndex = index
	e, err := NewEngine(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestClusterInitialBudgetRows pins the boot contract: a cluster shard's
// budget vector is exactly its row of the multi-shard engine's initial
// table, and the rows sum to capacity.
func TestClusterInitialBudgetRows(t *testing.T) {
	in := testInstance(t, 5, 60, 12)
	for _, s := range []int{2, 3, 4} {
		full, err := NewEngine(in, Options{Shards: s, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < s; si++ {
			shard := newClusterShard(t, in, Options{Seed: 42}, s, si)
			for v := 0; v < in.NumEvents(); v++ {
				if shard.budgets[0][v] != full.budgets[si][v] {
					t.Fatalf("S=%d shard %d event %d: cluster budget %d, in-process row %d",
						s, si, v, shard.budgets[0][v], full.budgets[si][v])
				}
			}
		}
		for v := 0; v < in.NumEvents(); v++ {
			sum := 0
			for si := 0; si < s; si++ {
				sum += full.budgets[si][v]
			}
			if sum != in.Events[v].Capacity {
				t.Fatalf("S=%d event %d: budget rows sum to %d, capacity %d", s, v, sum, in.Events[v].Capacity)
			}
		}
		full.Close()
	}
}

// TestClusterMatchesServeSharded is the engine-level half of the acceptance
// contract: S cluster engines plus a Coordinator, driven batch-by-batch with
// wire-shaped renewals (loads → Renew → InstallLease), produce the same
// arrangement, renewal count and moved-seat count as one S-shard Serve.
func TestClusterMatchesServeSharded(t *testing.T) {
	in := testInstance(t, 11, 200, 30)
	order := arrivalOrder(9, in.NumUsers())
	for _, s := range []int{2, 4} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) {
			opt := Options{Batch: 32, Seed: 42, CacheSize: 512}

			sharded := opt
			sharded.Shards = s
			want, err := Serve(in, order, sharded)
			if err != nil {
				t.Fatal(err)
			}

			coord, err := NewCoordinator(in, Options{Shards: s, Batch: 32, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*Engine, s)
			for si := range engines {
				engines[si] = newClusterShard(t, in, opt, s, si)
			}

			b := 32
			for start := 0; start < len(order); start += b {
				batch := order[start:min(start+b, len(order))]
				if start > 0 {
					// the wire renewal: collect loads, run the shared
					// renewer over the upcoming batch, install per shard
					for si, e := range engines {
						if err := coord.SetLoads(si, e.LoadVector()); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := coord.Renew(batch); err != nil {
						t.Fatal(err)
					}
					for si, e := range engines {
						if _, err := e.InstallLease(coord.Budget(si)); err != nil {
							t.Fatalf("install on shard %d: %v", si, err)
						}
					}
				}
				// the router's per-shard sub-batches, arrival order kept
				parts := make([][]int, s)
				for _, u := range batch {
					o := ShardOf(opt.Seed, u, s)
					parts[o] = append(parts[o], u)
				}
				for si, part := range parts {
					if len(part) > 0 {
						engines[si].DispatchBatch(part)
					}
				}
			}

			got := model.NewArrangement(in.NumUsers())
			util := 0.0
			for u := 0; u < in.NumUsers(); u++ {
				e := engines[ShardOf(opt.Seed, u, s)]
				if set := e.Assignment(0, u); len(set) > 0 {
					got.Sets[u] = set
				}
			}
			for _, e := range engines {
				util += e.ShardUtility(0)
			}
			modeltest.RequireEqual(t, fmt.Sprintf("cluster S=%d vs ServeSharded", s), want.Arrangement, got)
			if coord.Renewals() != want.LeaseRenewals {
				t.Errorf("coordinator renewals %d, ServeSharded %d", coord.Renewals(), want.LeaseRenewals)
			}
			if coord.MovedSeats() != want.MovedSeats {
				t.Errorf("coordinator moved seats %d, ServeSharded %d", coord.MovedSeats(), want.MovedSeats)
			}
			if math.Abs(util-want.Utility) > 1e-6 {
				t.Errorf("cluster utility %g, ServeSharded %g", util, want.Utility)
			}
		})
	}
}

// TestInstallLeaseValidation pins the install-side guardrails: cluster mode
// only, full-length vectors, never below current load, never above capacity,
// and the renewal counter advances only on success.
func TestInstallLeaseValidation(t *testing.T) {
	in := testInstance(t, 13, 40, 8)

	plain, err := NewEngine(in, Options{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.InstallLease(make([]int, in.NumEvents())); err == nil {
		t.Fatal("InstallLease accepted a non-cluster engine")
	}

	e := newClusterShard(t, in, Options{Seed: 1}, 2, 0)
	var u0 int
	for u := 0; u < in.NumUsers(); u++ {
		if e.Owns(u) {
			u0 = u
			break
		}
	}
	e.DispatchBatch([]int{u0})
	loads := e.LoadVector()

	if _, err := e.InstallLease(loads[:len(loads)-1]); err == nil {
		t.Fatal("InstallLease accepted a short vector")
	}
	over := append([]int(nil), loads...)
	over[0] = in.Events[0].Capacity + 1
	if _, err := e.InstallLease(over); err == nil {
		t.Fatal("InstallLease accepted a budget above capacity")
	}
	if v := firstLoaded(loads); v >= 0 {
		under := append([]int(nil), loads...)
		under[v]--
		if _, err := e.InstallLease(under); err == nil {
			t.Fatal("InstallLease accepted a budget below current load (grant revocation)")
		}
	}
	if e.Renewals() != 0 {
		t.Fatalf("failed installs advanced the renewal counter to %d", e.Renewals())
	}
	if _, err := e.InstallLease(loads); err != nil {
		t.Fatalf("valid install refused: %v", err)
	}
	if e.Renewals() != 1 {
		t.Fatalf("renewals after one install: %d", e.Renewals())
	}
}

func firstLoaded(loads []int) int {
	for v, l := range loads {
		if l > 0 {
			return v
		}
	}
	return -1
}

// TestExportAdoptRoundTrip pins the migration payload semantics: seats,
// utility and ownership all leave the source and land on the target, with
// the per-shard lease invariant intact on both sides.
func TestExportAdoptRoundTrip(t *testing.T) {
	in := testInstance(t, 17, 80, 10)
	opt := Options{Seed: 7, Batch: 16}
	src := newClusterShard(t, in, opt, 2, 0)
	dst := newClusterShard(t, in, opt, 2, 1)

	var owned []int
	for u := 0; u < in.NumUsers() && len(owned) < 8; u++ {
		if src.Owns(u) {
			owned = append(owned, u)
		}
	}
	src.DispatchBatch(owned)
	movers := owned[:3]
	wantSets := make([][]int, len(movers))
	for i, u := range movers {
		wantSets[i] = src.Assignment(0, u)
	}
	utilBefore := src.ShardUtility(0)

	if _, err := src.ExportUsers([]int{in.NumUsers()}); err == nil {
		t.Fatal("exported an out-of-range user")
	}
	var foreign int
	for u := 0; u < in.NumUsers(); u++ {
		if !src.Owns(u) {
			foreign = u
			break
		}
	}
	if _, err := src.ExportUsers([]int{foreign}); err == nil {
		t.Fatal("exported a user the shard does not own")
	}

	mig, err := src.ExportUsers(movers)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range movers {
		if src.Owns(u) {
			t.Fatalf("source still owns exported user %d", u)
		}
		if got := src.Assignment(0, u); len(got) != 0 {
			t.Fatalf("source kept exported user %d's assignment %v", u, got)
		}
		if len(mig.Sets[i]) != len(wantSets[i]) {
			t.Fatalf("migration set for user %d: %v, decided %v", u, mig.Sets[i], wantSets[i])
		}
	}

	if err := dst.AdoptUsers(&Migration{Users: []int{1}, Sets: nil}); err == nil {
		t.Fatal("adopted a length-mismatched migration")
	}
	if err := dst.AdoptUsers(mig); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptUsers(mig); err == nil {
		t.Fatal("double adopt accepted — users were already owned")
	}

	seatGain, utilGain := 0, 0.0
	for i, u := range movers {
		if !dst.Owns(u) {
			t.Fatalf("target does not own adopted user %d", u)
		}
		got := dst.Assignment(0, u)
		if len(got) != len(wantSets[i]) {
			t.Fatalf("adopted assignment for user %d: %v, decided %v", u, got, wantSets[i])
		}
		for k, v := range wantSets[i] {
			if got[k] != v {
				t.Fatalf("adopted assignment for user %d: %v, decided %v", u, got, wantSets[i])
			}
			seatGain++
			utilGain += in.Weight(u, v)
		}
	}
	// seat and utility conservation across the move
	for v := 0; v < in.NumEvents(); v++ {
		moved := 0
		for i := range movers {
			for _, mv := range wantSets[i] {
				if mv == v {
					moved++
				}
			}
		}
		if got := dst.EventLoad(v); got != moved {
			t.Errorf("target load for event %d: %d, want %d", v, got, moved)
		}
	}
	if math.Abs(src.ShardUtility(0)+utilGain-utilBefore) > 1e-9 {
		t.Errorf("utility not conserved: source %g + moved %g != before %g",
			src.ShardUtility(0), utilGain, utilBefore)
	}
	if math.Abs(dst.ShardUtility(0)-utilGain) > 1e-9 {
		t.Errorf("target utility %g, moved %g", dst.ShardUtility(0), utilGain)
	}
	_ = seatGain
}

// TestCoordinatorValidation pins the router-side guardrails: load vectors
// are range-checked, budget rows always sum to capacity after Renew, and
// TransferSeats refuses malformed or over-budget moves.
func TestCoordinatorValidation(t *testing.T) {
	in := testInstance(t, 19, 50, 8)
	coord, err := NewCoordinator(in, Options{Shards: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	if err := coord.SetLoads(2, make([]int, in.NumEvents())); err == nil {
		t.Fatal("SetLoads accepted an out-of-range shard")
	}
	if err := coord.SetLoads(0, make([]int, 1)); err == nil {
		t.Fatal("SetLoads accepted a short vector")
	}
	bad := make([]int, in.NumEvents())
	bad[0] = in.Events[0].Capacity + 1
	if err := coord.SetLoads(0, bad); err == nil {
		t.Fatal("SetLoads accepted a load above capacity")
	}

	if err := coord.SetLoads(0, make([]int, in.NumEvents())); err != nil {
		t.Fatal(err)
	}
	if err := coord.SetLoads(1, make([]int, in.NumEvents())); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Renew([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < in.NumEvents(); v++ {
		if sum := coord.Budget(0)[v] + coord.Budget(1)[v]; sum != in.Events[v].Capacity {
			t.Fatalf("event %d: budgets sum to %d after Renew, capacity %d", v, sum, in.Events[v].Capacity)
		}
	}
	if coord.Renewals() != 1 {
		t.Fatalf("renewals: %d", coord.Renewals())
	}

	seats := make([]int, in.NumEvents())
	if err := coord.TransferSeats(0, 0, seats); err == nil {
		t.Fatal("TransferSeats accepted from == to")
	}
	if err := coord.TransferSeats(0, 1, seats[:1]); err == nil {
		t.Fatal("TransferSeats accepted a short vector")
	}
	seats[0] = -1
	if err := coord.TransferSeats(0, 1, seats); err == nil {
		t.Fatal("TransferSeats accepted a negative count")
	}
	seats[0] = coord.Budget(0)[0] + 1
	if err := coord.TransferSeats(0, 1, seats); err == nil {
		t.Fatal("TransferSeats accepted a move exceeding the source budget")
	}
	seats[0] = coord.Budget(0)[0]
	before0, before1 := coord.Budget(0)[0], coord.Budget(1)[0]
	if err := coord.TransferSeats(0, 1, seats); err != nil {
		t.Fatal(err)
	}
	if got0, got1 := coord.Budget(0)[0], coord.Budget(1)[0]; got0 != 0 || got1 != before0+before1 {
		t.Fatalf("after transfer: budgets %d/%d, want 0/%d", got0, got1, before0+before1)
	}
}
