package shard

import (
	"fmt"
	"math"
	"sort"

	"github.com/ebsn/igepa/internal/wal"
)

// EngineState is the serializable serving state of an Engine — everything a
// warm boot needs to continue bit-identically from a checkpoint: the merged
// decisions, the lease table, and the counters. Planner loads are derived
// from the decision sets on restore (they are a pure projection); per-shard
// utility is stored as raw float64 bits because it is accumulated
// incrementally in arrival order and a re-summation would round differently.
type EngineState struct {
	// Configuration fingerprint: a checkpoint only restores into an engine
	// built with the same partition-determining options.
	Shards int   `json:"shards"`
	Batch  int   `json:"batch"`
	Seed   int64 `json:"seed"`
	// Cluster-mode fingerprint (zero outside cluster mode): the cluster
	// width and this process's shard index.
	ClusterShards int `json:"cluster_shards,omitempty"`
	ClusterIndex  int `json:"cluster_index,omitempty"`

	Epochs     int   `json:"epochs"`
	Renewals   int   `json:"renewals"`
	MovedSeats int   `json:"moved_seats"`
	Arrivals   []int `json:"arrivals"`

	// UtilityBits[si] is math.Float64bits(ShardUtility(si)).
	UtilityBits []uint64 `json:"utility_bits"`
	// Budgets[si][v] is shard si's current lease on event v.
	Budgets [][]int `json:"budgets"`
	// Sets[u] is user u's current assignment (nil when undecided, cancelled
	// or empty — the States array at the serving layer disambiguates).
	Sets [][]int `json:"sets"`
	// Owned/Disowned are the migration ownership overrides (cluster mode
	// only): users adopted onto this shard and users exported off it.
	Owned    []int `json:"owned,omitempty"`
	Disowned []int `json:"disowned,omitempty"`
}

// CheckpointState captures the engine's serving state. The caller owns
// quiescence: no concurrent DispatchBatch/ArriveOn/CancelOn/RenewLeases
// (the serving layer holds every shard lock).
func (e *Engine) CheckpointState() *EngineState {
	nu := e.in.NumUsers()
	st := &EngineState{
		Shards: e.s, Batch: e.b, Seed: e.opt.Seed,
		ClusterShards: e.clusterS, ClusterIndex: e.clusterIdx,
		Epochs: e.epochs, Renewals: e.renewals, MovedSeats: e.moved,
		Arrivals:    append([]int(nil), e.arrivals...),
		UtilityBits: make([]uint64, e.s),
		Budgets:     make([][]int, e.s),
		Sets:        make([][]int, nu),
	}
	for si := 0; si < e.s; si++ {
		st.UtilityBits[si] = math.Float64bits(e.shardUtil[si])
		st.Budgets[si] = append([]int(nil), e.budgets[si]...)
	}
	for u := 0; u < nu; u++ {
		if set := e.parts[e.ShardOf(u)].Sets[u]; len(set) > 0 {
			st.Sets[u] = append([]int(nil), set...)
		}
	}
	if e.clusterS > 0 {
		st.Owned, st.Disowned = e.ownershipOverrides()
	}
	return st
}

// RestoreState installs a checkpointed state into a freshly built engine. It
// validates the configuration fingerprint, the lease invariant
// (Σ_s budget[s][v] = cv) and the decision sets, derives the planner loads,
// and restores the utility accumulators bit-exactly. The engine must not
// have served any arrivals yet.
func (e *Engine) RestoreState(st *EngineState) error {
	if st == nil {
		return &ConfigError{Field: "checkpoint", Reason: "nil state"}
	}
	if st.Shards != e.s || st.Batch != e.b || st.Seed != e.opt.Seed {
		return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
			"checkpoint for S=%d B=%d seed=%d, engine has S=%d B=%d seed=%d",
			st.Shards, st.Batch, st.Seed, e.s, e.b, e.opt.Seed)}
	}
	if st.ClusterShards != e.clusterS || (e.clusterS > 0 && st.ClusterIndex != e.clusterIdx) {
		return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
			"checkpoint for cluster shard %d/%d, engine is %d/%d",
			st.ClusterIndex, st.ClusterShards, e.clusterIdx, e.clusterS)}
	}
	nu, nv := e.in.NumUsers(), e.in.NumEvents()
	if len(st.Arrivals) != e.s || len(st.UtilityBits) != e.s || len(st.Budgets) != e.s {
		return &ConfigError{Field: "checkpoint", Reason: "per-shard arrays do not match shard count"}
	}
	if len(st.Sets) != nu {
		return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
			"checkpoint covers %d users, instance has %d", len(st.Sets), nu)}
	}
	for si := 0; si < e.s; si++ {
		if len(st.Budgets[si]) != nv {
			return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
				"shard %d budget covers %d events, instance has %d", si, len(st.Budgets[si]), nv)}
		}
	}
	for v := 0; v < nv; v++ {
		sum := 0
		for si := 0; si < e.s; si++ {
			if st.Budgets[si][v] < 0 {
				return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
					"negative lease %d for shard %d event %d", st.Budgets[si][v], si, v)}
			}
			sum += st.Budgets[si][v]
		}
		if e.clusterS > 0 {
			// A cluster shard holds one slice of the lease table: the full
			// Σ_s budget[s][v] = cv invariant is the coordinator's to keep;
			// locally the slice just must not exceed the capacity.
			if sum > e.in.Events[v].Capacity {
				return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
					"event %d has %d seats leased on one cluster shard, capacity %d", v, sum, e.in.Events[v].Capacity)}
			}
		} else if sum != e.in.Events[v].Capacity {
			return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
				"event %d has %d seats leased, capacity %d", v, sum, e.in.Events[v].Capacity)}
		}
	}
	// Derive per-shard loads from the sets and check them against the leases
	// before touching any engine state.
	loads := make([][]int, e.s)
	for si := range loads {
		loads[si] = make([]int, nv)
	}
	for u, set := range st.Sets {
		si := e.ShardOf(u)
		for _, v := range set {
			if v < 0 || v >= nv {
				return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
					"user %d assigned unknown event %d", u, v)}
			}
			loads[si][v]++
		}
	}
	for si := 0; si < e.s; si++ {
		for v := 0; v < nv; v++ {
			if loads[si][v] > st.Budgets[si][v] {
				return &ConfigError{Field: "checkpoint", Reason: fmt.Sprintf(
					"shard %d grants %d seats of event %d over a lease of %d",
					si, loads[si][v], v, st.Budgets[si][v])}
			}
		}
	}
	// Install. Budgets and loads are copied element-wise into the existing
	// slices: the planners alias them.
	for si := 0; si < e.s; si++ {
		copy(e.budgets[si], st.Budgets[si])
		copy(e.loads[si], loads[si])
		e.shardUtil[si] = math.Float64frombits(st.UtilityBits[si])
	}
	copy(e.arrivals, st.Arrivals)
	for u, set := range st.Sets {
		if len(set) > 0 {
			e.parts[e.ShardOf(u)].Sets[u] = append([]int(nil), set...)
		}
	}
	e.epochs = st.Epochs
	e.renewals = st.Renewals
	e.moved = st.MovedSeats
	if e.clusterS > 0 {
		e.restoreOwnership(st.Owned, st.Disowned)
	}
	return nil
}

// NoteRestored feeds one recovered decision to the live-bound shadow (no-op
// without Options.LiveBound): a restored decided user left the remaining
// problem before this process was born, and the shadow must know. Call once
// per decided user after RestoreState, then UpdateBound.
func (e *Engine) NoteRestored(u int, events []int) {
	if e.bound != nil {
		e.bound.record(e.ShardOf(u), u, events, false)
	}
}

// SetBids replaces user u's bid set (sorted, deduplicated), rebuilds the
// instance's derived tables and refreshes the engine's weight view — the one
// implementation of the bid-replacement stop-the-world shared by the HTTP
// layer and WAL replay. The caller owns exclusion across every shard.
func (e *Engine) SetBids(u int, bids []int) []int {
	norm := append([]int(nil), bids...)
	sort.Ints(norm)
	j := 0
	for i, v := range norm {
		if i == 0 || v != norm[i-1] {
			norm[j] = v
			j++
		}
	}
	norm = norm[:j]
	e.in.Users[u].Bids = norm
	e.in.RebuildBidders()
	e.in.Weights() // eager: serving goroutines must never race the lazy build
	e.RefreshWeights()
	e.NoteBidUpdate(u)
	return norm
}

// Apply replays one WAL operation against the engine — the recovery path's
// single entry point, reproducing exactly what the serving layer did when it
// logged the op. A *LeaseError from a renewal is returned after the renewal
// state has advanced (matching the live path, which counts it and serves
// on); every other error means the op is invalid against this instance and
// nothing was applied.
func (e *Engine) Apply(op wal.Op) error {
	nu := e.in.NumUsers()
	switch op.Kind {
	case wal.OpBid:
		if op.User < 0 || op.User >= nu {
			return fmt.Errorf("shard: replay: bid for unknown user %d", op.User)
		}
		e.ArriveOn(e.ShardOf(op.User), op.User)
		return nil
	case wal.OpBatch:
		for _, u := range op.Users {
			if u < 0 || u >= nu {
				return fmt.Errorf("shard: replay: batch with unknown user %d", u)
			}
		}
		// The Serve/replay-mode schedule: renew before every batch after the
		// first, fed with the batch about to run. Derived from engine state
		// so the log needs no renewal records in replay mode.
		var lerr error
		if e.epochs > 0 && e.s > 1 {
			if _, err := e.RenewLeases(op.Users); err != nil {
				lerr = err
			}
		}
		e.DispatchBatch(op.Users)
		return lerr
	case wal.OpRenew:
		for _, u := range op.Users {
			if u < 0 || u >= nu {
				return fmt.Errorf("shard: replay: renewal with unknown user %d", u)
			}
		}
		if e.s == 1 {
			// A single shard holds the whole capacity table; the serving
			// layer never renews (or logs renewals for) S=1, so a stray
			// record is a schedule no-op, not a reason to fail recovery.
			return nil
		}
		_, err := e.RenewLeases(op.Users)
		return err
	case wal.OpCancel:
		if op.User < 0 || op.User >= nu {
			return fmt.Errorf("shard: replay: cancel for unknown user %d", op.User)
		}
		e.CancelOn(e.ShardOf(op.User), op.User)
		return nil
	case wal.OpLease:
		if e.clusterS == 0 {
			return fmt.Errorf("shard: replay: lease install outside cluster mode")
		}
		_, err := e.InstallLease(op.Budget)
		return err
	case wal.OpExport:
		_, err := e.ExportUsers(op.Users)
		return err
	case wal.OpAdopt:
		return e.AdoptUsers(&Migration{Users: op.Users, Sets: op.Sets})
	case wal.OpSetBids:
		if op.User < 0 || op.User >= nu {
			return fmt.Errorf("shard: replay: set_bids for unknown user %d", op.User)
		}
		for _, v := range op.Bids {
			if v < 0 || v >= e.in.NumEvents() {
				return fmt.Errorf("shard: replay: set_bids with unknown event %d", v)
			}
		}
		e.SetBids(op.User, op.Bids)
		return nil
	default:
		return fmt.Errorf("shard: replay: unknown op kind %q", op.Kind)
	}
}
