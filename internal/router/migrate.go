package router

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/ebsn/igepa/internal/server"
)

// Join/leave support: POST /admin/migrate moves a user range between two
// live backends without dropping queued work (the runbook is DESIGN.md §10).
// The sequence, serialized against renewal rounds by renewMu:
//
//  1. drain the source so no queued bid for a moving user is in flight
//  2. /cluster/export on the source — decisions, consumed seats, and
//     lifecycle states leave its engine; it answers 421 for those users
//     from now on
//  3. /cluster/adopt on the target — the same state enters its engine
//  4. mirror the seat movement in the Coordinator's budget table and flip
//     the routing overrides, so new bids route to the target
//
// Between steps 2 and 4 a directly-arriving request can still hit the source
// and bounce 421; the /v1 handlers re-resolve once, and after step 4 the
// override answers. A failure after the export committed leaves the range
// homeless — that is not repairable from here, so the router degrades
// fail-stop and the operator replays the WALs.

// MigrateRequest is the /admin/migrate payload.
type MigrateRequest struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Users []int `json:"users"`
}

func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !rt.writable(w) {
		return
	}
	var req MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	if req.From < 0 || req.From >= rt.s || req.To < 0 || req.To >= rt.s || req.From == req.To {
		rt.badRequest(w, fmt.Sprintf("bad shard pair %d -> %d for %d backends", req.From, req.To, rt.s))
		return
	}
	if len(req.Users) == 0 {
		rt.badRequest(w, "no users to migrate")
		return
	}
	for _, u := range req.Users {
		if u < 0 || u >= rt.in.NumUsers() {
			rt.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", u, rt.in.NumUsers()))
			return
		}
		if rt.ownerOf(u) != req.From {
			httpError(w, http.StatusConflict, fmt.Sprintf("user %d is owned by shard %d, not %d", u, rt.ownerOf(u), req.From))
			return
		}
	}
	moved, err := rt.migrate(&req)
	if err != nil {
		propagate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Migrated int `json:"migrated"`
		Seats    int `json:"seats_moved"`
	}{Migrated: len(req.Users), Seats: moved})
}

func (rt *Router) migrate(req *MigrateRequest) (int, error) {
	// renewMu excludes renewal rounds: a freeze mid-migration would read a
	// budget table the transfer below is about to rewrite.
	rt.renewMu.Lock()
	defer rt.renewMu.Unlock()
	if rt.degraded.Load() {
		return 0, &statusError{status: http.StatusServiceUnavailable, msg: "router degraded: " + rt.degradedReason()}
	}

	// 1. Quiesce the source: every queued bid for these users decides before
	// the export (the shard refuses to export a queued user regardless —
	// this makes that refusal not fire under normal operation).
	var dr struct {
		Drained bool `json:"drained"`
	}
	if _, err := rt.postJSON(req.From, "/admin/drain", struct{}{}, &dr); err != nil {
		return 0, fmt.Errorf("draining shard %d: %w", req.From, err)
	}
	if !dr.Drained {
		return 0, &statusError{status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("shard %d did not drain; retry", req.From)}
	}
	rt.obs.migratePhases["drain"].Inc()

	// 2. Export. Failures here are clean: nothing has moved yet.
	var mig server.ClusterMigration
	if _, err := rt.postJSON(req.From, "/cluster/export",
		server.ClusterExportRequest{Users: req.Users}, &mig); err != nil {
		return 0, fmt.Errorf("export from shard %d: %w", req.From, err)
	}
	rt.obs.migratePhases["export"].Inc()

	// 3. Adopt. From here on a failure strands the exported range: degrade.
	if _, err := rt.postJSON(req.To, "/cluster/adopt", &mig, nil); err != nil {
		rt.degrade(fmt.Sprintf("migration %d->%d lost %d exported users: %v", req.From, req.To, len(mig.Users), err))
		return 0, fmt.Errorf("adopt on shard %d: %w", req.To, err)
	}
	rt.obs.migratePhases["adopt"].Inc()

	// 4. Mirror in the coordinator and flip the routing table.
	seats := make([]int, rt.in.NumEvents())
	moved := 0
	for _, set := range mig.Sets {
		for _, v := range set {
			seats[v]++
			moved++
		}
	}
	if err := rt.coord.TransferSeats(req.From, req.To, seats); err != nil {
		rt.degrade(fmt.Sprintf("migration %d->%d: coordinator transfer failed: %v", req.From, req.To, err))
		return 0, err
	}
	rt.routeMu.Lock()
	for _, u := range req.Users {
		rt.override[u] = req.To
	}
	rt.routeMu.Unlock()
	rt.obs.migratePhases["commit"].Inc()
	rt.obs.migratedUsers.Add(int64(len(req.Users)))
	rt.obs.migratedSeats.Add(int64(moved))
	rt.obs.mirrorCoord(rt.coord.Renewals(), rt.coord.MovedSeats())
	return moved, nil
}
