package shard

import (
	"fmt"
	"sort"

	"github.com/ebsn/igepa/internal/model"
)

// This file is the shard package's distributed-deployment surface: the
// single-shard ("cluster") engine mode that igepa-serve -cluster hosts, the
// Migration wire type that moves a user range (decisions + consumed seats)
// between shards, and the Coordinator that runs the lease-renewal arithmetic
// at the router tier.
//
// The design invariant is that a cluster of S single-shard engines plus one
// Coordinator is the same machine as one S-shard Engine, cut along the shard
// boundary: initial budgets come from the identical even split, renewals run
// the identical leaseRenewer code over the identical (loads, budgets, demand)
// inputs, and installs copy the computed absolute budget vectors back into
// the shards. Decisions are therefore bit-identical to ServeSharded by
// construction, which is what the router's replay pin tests enforce.

// initialBudgets builds the initial lease table for an s-shard split of the
// instance: each event's capacity divided evenly, the remainder rotated by
// event index so no shard systematically collects the extra seats. This is
// the one copy of the rule, shared by NewEngine (whole table) and the
// cluster boot path (one row per process).
func initialBudgets(in *model.Instance, s int) [][]int {
	nv := in.NumEvents()
	budgets := make([][]int, s)
	for si := range budgets {
		budgets[si] = make([]int, nv)
	}
	for v := 0; v < nv; v++ {
		cv := in.Events[v].Capacity
		base, rem := cv/s, cv%s
		for si := 0; si < s; si++ {
			budgets[si][v] = base
		}
		for k := 0; k < rem; k++ {
			budgets[(v+k)%s][v]++
		}
	}
	return budgets
}

// ClusterShards returns the cluster width S (0 when this engine is not a
// cluster shard).
func (e *Engine) ClusterShards() int { return e.clusterS }

// ClusterIndex returns this engine's shard index within the cluster
// (meaningless unless ClusterShards > 0).
func (e *Engine) ClusterIndex() int { return e.clusterIdx }

// Owns reports whether this engine serves user u. Outside cluster mode every
// user is owned. In cluster mode ownership is the stateless hash partition,
// overridden per user by completed migrations (ExportUsers / AdoptUsers).
// Safe to call concurrently with serving; migrations mutate the override map
// under the engine's exclusion plus ownMu.
func (e *Engine) Owns(u int) bool {
	if e.clusterS == 0 {
		return true
	}
	e.ownMu.RLock()
	ov, ok := e.ownsOverride[u]
	e.ownMu.RUnlock()
	if ok {
		return ov
	}
	return ShardOf(e.opt.Seed, u, e.clusterS) == e.clusterIdx
}

// LoadVector returns the per-event seats currently granted by this engine
// (summed across local shards). The caller owns exclusion against serving.
func (e *Engine) LoadVector() []int {
	nv := e.in.NumEvents()
	loads := make([]int, nv)
	for v := 0; v < nv; v++ {
		loads[v] = e.EventLoad(v)
	}
	return loads
}

// InstallLease replaces this cluster shard's budget vector with a
// coordinator-computed one — the receiving half of the wire renewal
// protocol. The new budget must cover the seats already granted (renewal
// never revokes a grant) and stay within each event's capacity. Returns the
// seats gained relative to the old free headroom, mirroring the moved-seat
// accounting of the in-process renewer, and advances the renewal counter.
// The caller owns exclusion against serving.
func (e *Engine) InstallLease(budget []int) (int, error) {
	if e.clusterS == 0 {
		return 0, &ConfigError{Field: "ClusterShards", Reason: "InstallLease requires a cluster-mode engine"}
	}
	nv := e.in.NumEvents()
	if len(budget) != nv {
		return 0, &ConfigError{Field: "budget", Reason: fmt.Sprintf(
			"lease covers %d events, instance has %d", len(budget), nv)}
	}
	loads := e.loads[0]
	for v := 0; v < nv; v++ {
		if budget[v] < loads[v] {
			return 0, &LeaseError{Event: v, Leased: budget[v], Capacity: loads[v]}
		}
		if budget[v] > e.in.Events[v].Capacity {
			return 0, &LeaseError{Event: v, Leased: budget[v], Capacity: e.in.Events[v].Capacity}
		}
	}
	moved := 0
	for v := 0; v < nv; v++ {
		oldRem := e.budgets[0][v] - loads[v]
		if newRem := budget[v] - loads[v]; newRem > oldRem {
			moved += newRem - oldRem
		}
		e.budgets[0][v] = budget[v]
	}
	e.moved += moved
	e.renewals++
	return moved, nil
}

// Migration is the wire/WAL payload of a user-range handoff between cluster
// shards: the users, and for each their current assignment (nil when
// undecided or cancelled). Consumed seats travel with the decisions — the
// source's budget and load both shrink by each granted seat, the target's
// grow — so the cluster-wide lease invariant Σ_s budget[s][v] ≤ cv is
// preserved exactly through the move.
type Migration struct {
	Users []int   `json:"users"`
	Sets  [][]int `json:"sets"`
}

// ExportUsers removes the given users from this cluster shard for migration:
// their decisions leave the arrangement part, their consumed seats leave both
// the load and the budget vector, their utility contribution is subtracted,
// and ownership is overridden off. The caller owns exclusion against serving
// and must have quiesced any queued work for these users (the router drains
// the source first). Returns the Migration payload to adopt elsewhere.
func (e *Engine) ExportUsers(users []int) (*Migration, error) {
	if e.clusterS == 0 {
		return nil, &ConfigError{Field: "ClusterShards", Reason: "ExportUsers requires a cluster-mode engine"}
	}
	nu := e.in.NumUsers()
	for _, u := range users {
		if u < 0 || u >= nu {
			return nil, &ConfigError{Field: "users", Reason: fmt.Sprintf("unknown user %d", u)}
		}
		if !e.Owns(u) {
			return nil, &ConfigError{Field: "users", Reason: fmt.Sprintf("user %d is not owned by this shard", u)}
		}
	}
	m := &Migration{Users: append([]int(nil), users...), Sets: make([][]int, len(users))}
	e.ownMu.Lock()
	for i, u := range users {
		set := e.parts[0].Sets[u]
		if len(set) > 0 {
			m.Sets[i] = append([]int(nil), set...)
			for _, v := range set {
				e.loads[0][v]--
				e.budgets[0][v]--
				e.shardUtil[0] -= e.wc.Of(u, v)
			}
			e.parts[0].Sets[u] = nil
		}
		e.ownsOverride[u] = false
	}
	e.ownMu.Unlock()
	return m, nil
}

// AdoptUsers installs a Migration exported by another cluster shard: the
// decisions enter this shard's arrangement part, the consumed seats enter
// its load and budget vectors, the utility contributions are added, and
// ownership is overridden on. The caller owns exclusion against serving.
func (e *Engine) AdoptUsers(m *Migration) error {
	if e.clusterS == 0 {
		return &ConfigError{Field: "ClusterShards", Reason: "AdoptUsers requires a cluster-mode engine"}
	}
	if m == nil || len(m.Users) != len(m.Sets) {
		return &ConfigError{Field: "migration", Reason: "users and sets must be the same length"}
	}
	nu, nv := e.in.NumUsers(), e.in.NumEvents()
	for i, u := range m.Users {
		if u < 0 || u >= nu {
			return &ConfigError{Field: "migration", Reason: fmt.Sprintf("unknown user %d", u)}
		}
		if e.Owns(u) {
			return &ConfigError{Field: "migration", Reason: fmt.Sprintf("user %d is already owned by this shard", u)}
		}
		for _, v := range m.Sets[i] {
			if v < 0 || v >= nv {
				return &ConfigError{Field: "migration", Reason: fmt.Sprintf("user %d assigned unknown event %d", u, v)}
			}
		}
	}
	e.ownMu.Lock()
	for i, u := range m.Users {
		if set := m.Sets[i]; len(set) > 0 {
			e.parts[0].Sets[u] = append([]int(nil), set...)
			for _, v := range set {
				e.loads[0][v]++
				e.budgets[0][v]++
				e.shardUtil[0] += e.wc.Of(u, v)
			}
		}
		e.ownsOverride[u] = true
	}
	e.ownMu.Unlock()
	return nil
}

// ownershipOverrides snapshots the migration override map as two sorted user
// lists (adopted onto this shard; exported off it) — the checkpoint encoding.
func (e *Engine) ownershipOverrides() (owned, disowned []int) {
	e.ownMu.RLock()
	for u, ov := range e.ownsOverride {
		if ov {
			owned = append(owned, u)
		} else {
			disowned = append(disowned, u)
		}
	}
	e.ownMu.RUnlock()
	sort.Ints(owned)
	sort.Ints(disowned)
	return owned, disowned
}

// restoreOwnership installs checkpointed override lists.
func (e *Engine) restoreOwnership(owned, disowned []int) {
	e.ownMu.Lock()
	for _, u := range owned {
		e.ownsOverride[u] = true
	}
	for _, u := range disowned {
		e.ownsOverride[u] = false
	}
	e.ownMu.Unlock()
}

// --- Coordinator ----------------------------------------------------------

// Coordinator runs the lease-renewal rounds for a cluster of single-shard
// engines — the router tier's half of the wire renewal protocol. It holds
// the cluster-wide view the in-process Engine keeps for itself: the full
// budget table and the per-shard load vectors (refreshed from the shards'
// demand responses each round). Renew executes the identical leaseRenewer
// code the in-process engine runs, so the budget vectors it hands back for
// installation are bit-identical to a single-process renewal over the same
// state.
//
// A Coordinator is not synchronized; the router serializes Renew against
// SetLoads and TransferSeats.
type Coordinator struct {
	in      *model.Instance
	s, nv   int
	budgets [][]int
	loads   [][]int
	renewer *leaseRenewer

	renewals, moved int
}

// NewCoordinator validates the options and assembles the cluster-wide
// renewal state for an Options.Shards-wide cluster.
func NewCoordinator(in *model.Instance, opt Options) (*Coordinator, error) {
	if in == nil {
		return nil, &ConfigError{Field: "instance", Reason: "nil instance"}
	}
	if err := in.Check(); err != nil {
		return nil, &ConfigError{Field: "instance", Reason: err.Error()}
	}
	if opt.Shards <= 0 {
		return nil, &ConfigError{Field: "Shards", Reason: fmt.Sprintf("must be positive, got %d", opt.Shards)}
	}
	c := &Coordinator{
		in: in, s: opt.Shards, nv: in.NumEvents(),
		budgets: initialBudgets(in, opt.Shards),
		loads:   make([][]int, opt.Shards),
	}
	for si := range c.loads {
		c.loads[si] = make([]int, c.nv)
	}
	c.renewer = newLeaseRenewer(in, c.budgets, c.loads, opt.Seed)
	return c, nil
}

// SetLoads installs shard si's reported per-event load vector — phase one of
// a renewal round.
func (c *Coordinator) SetLoads(si int, loads []int) error {
	if si < 0 || si >= c.s {
		return &ConfigError{Field: "shard", Reason: fmt.Sprintf("shard %d outside [0,%d)", si, c.s)}
	}
	if len(loads) != c.nv {
		return &ConfigError{Field: "loads", Reason: fmt.Sprintf(
			"load vector covers %d events, instance has %d", len(loads), c.nv)}
	}
	for v, l := range loads {
		if l < 0 || l > c.in.Events[v].Capacity {
			return &ConfigError{Field: "loads", Reason: fmt.Sprintf(
				"shard %d reports load %d for event %d (capacity %d)", si, l, v, c.in.Events[v].Capacity)}
		}
	}
	copy(c.loads[si], loads)
	return nil
}

// Renew runs one renewal round over the installed loads, fed with the queued
// demand snapshot, and returns the seats that changed owner. It re-checks
// the lease invariant exactly as Engine.RenewLeases does. After Renew, each
// Budget(si) is the absolute vector to install on shard si.
func (c *Coordinator) Renew(next []int) (int, error) {
	moved := c.renewer.renew(c.renewals+1, next)
	c.moved += moved
	c.renewals++
	for v := 0; v < c.nv; v++ {
		sum := 0
		for si := 0; si < c.s; si++ {
			sum += c.budgets[si][v]
		}
		if sum != c.in.Events[v].Capacity {
			return moved, &LeaseError{Event: v, Leased: sum, Capacity: c.in.Events[v].Capacity}
		}
	}
	return moved, nil
}

// Budget returns a copy of shard si's current budget vector.
func (c *Coordinator) Budget(si int) []int {
	return append([]int(nil), c.budgets[si]...)
}

// Renewals returns the renewal rounds run so far.
func (c *Coordinator) Renewals() int { return c.renewals }

// MovedSeats returns the total seats that changed owner across renewals.
func (c *Coordinator) MovedSeats() int { return c.moved }

// TransferSeats mirrors a user-range migration in the coordinator's view:
// seats[v] consumed seats (budget and load) move from shard `from` to shard
// `to` per event. The per-event budget sums are unchanged, so the lease
// invariant is preserved by construction.
func (c *Coordinator) TransferSeats(from, to int, seats []int) error {
	if from < 0 || from >= c.s || to < 0 || to >= c.s || from == to {
		return &ConfigError{Field: "shard", Reason: fmt.Sprintf("bad transfer %d -> %d for %d shards", from, to, c.s)}
	}
	if len(seats) != c.nv {
		return &ConfigError{Field: "seats", Reason: fmt.Sprintf(
			"seat vector covers %d events, instance has %d", len(seats), c.nv)}
	}
	for v, n := range seats {
		if n < 0 {
			return &ConfigError{Field: "seats", Reason: fmt.Sprintf("negative seat count %d for event %d", n, v)}
		}
		if c.budgets[from][v]-n < 0 {
			return &ConfigError{Field: "seats", Reason: fmt.Sprintf(
				"transfer of %d seats of event %d exceeds shard %d's budget %d", n, v, from, c.budgets[from][v])}
		}
	}
	for v, n := range seats {
		c.budgets[from][v] -= n
		c.budgets[to][v] += n
		c.loads[from][v] -= n
		c.loads[to][v] += n
	}
	return nil
}
