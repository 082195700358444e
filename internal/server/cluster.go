package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// This file is the cluster-shard half of the wire renewal protocol (see
// DESIGN.md §10). A shard process (igepa-serve -listen -cluster S -index i)
// exposes /cluster/* endpoints to its router:
//
//	POST /cluster/demand  — phase 1 (prepare): freeze grants, report loads
//	                        and queued demand
//	POST /cluster/lease   — phase 2 (install): install the coordinator's
//	                        budget vector, thaw
//	POST /cluster/abort   — explicit thaw without install
//	POST /cluster/batch   — replay-mode dispatch of one ordered sub-batch
//	POST /cluster/ops     — live /v1 traffic, coalesced: one envelope of
//	                        bids, cancels and reads, one micro-batch
//	POST /cluster/export  — migration: hand a user range off this shard
//	POST /cluster/adopt   — migration: take a user range onto this shard
//
// The freeze between demand and lease is what makes the two-phase renewal
// sound: the shard's loads must not move between the coordinator reading
// them and the new budgets landing, or a grant in that window could exceed
// the incoming lease. Freezing means holding every serving lock across the
// two HTTP calls; a watchdog thaws the shard after DefaultFreezeTimeout so a
// dead router cannot wedge it (the late install then gets a 409 and the
// router degrades rather than double-booking).

// leaseGate is the freeze window's state machine. busy covers the whole
// prepare→install/abort/expiry span (a second prepare is refused, not
// deadlocked behind held serving locks); frozen marks the serving locks as
// held on the coordinator's behalf.
type leaseGate struct {
	mu     sync.Mutex
	busy   bool
	frozen bool
	gen    uint64
	timer  *time.Timer
}

func (srv *Server) freezeTimeout() time.Duration {
	if srv.cfg.freezeTimeout > 0 {
		return srv.cfg.freezeTimeout
	}
	return DefaultFreezeTimeout
}

// freezeLeases acquires every serving lock on behalf of the coordinator and
// arms the expiry watchdog. Returns false when a freeze is already active.
func (srv *Server) freezeLeases() (uint64, bool) {
	g := &srv.gate
	g.mu.Lock()
	if g.busy {
		g.mu.Unlock()
		return 0, false
	}
	g.busy = true
	g.mu.Unlock()

	srv.lockAll()
	g.mu.Lock()
	g.frozen = true
	g.gen++
	gen := g.gen
	g.timer = time.AfterFunc(srv.freezeTimeout(), func() {
		if srv.thawFreeze(gen) {
			log.Printf("server: wire-renewal freeze expired after %v; thawed (router dead or slow)", srv.freezeTimeout())
		}
	})
	g.mu.Unlock()
	return gen, true
}

// thawFreeze releases freeze generation gen (no-op when a newer freeze or an
// install already released it). Reports whether this call released the locks.
func (srv *Server) thawFreeze(gen uint64) bool {
	g := &srv.gate
	g.mu.Lock()
	if !g.frozen || g.gen != gen {
		g.mu.Unlock()
		return false
	}
	g.release()
	g.mu.Unlock()
	srv.unlockAll()
	return true
}

// abortFreeze releases whatever freeze is active (Close's path: a frozen
// gate would stall the consumers' final batches).
func (srv *Server) abortFreeze() bool {
	g := &srv.gate
	g.mu.Lock()
	if !g.frozen {
		g.mu.Unlock()
		return false
	}
	g.release()
	g.mu.Unlock()
	srv.unlockAll()
	return true
}

// release resets the gate; the caller holds g.mu and still owns unlockAll.
func (g *leaseGate) release() {
	g.frozen = false
	g.busy = false
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
}

// --- wire types (shared with internal/router) ------------------------------

// ClusterDemandResponse is the prepare phase's report: this shard's per-event
// granted seats and the users queued behind the freeze (the renewal demand
// predictor), plus the renewal counter for coordinator/shard sync checks.
type ClusterDemandResponse struct {
	Loads    []int `json:"loads"`
	Queued   []int `json:"queued"`
	Renewals int   `json:"renewals"`
}

// ClusterLeaseRequest carries the coordinator-computed absolute budget
// vector to install.
type ClusterLeaseRequest struct {
	Budget []int `json:"budget"`
}

// ClusterLeaseResponse reports the install: seats gained versus the old free
// headroom (the MovedSeats currency) and the shard's new renewal count.
type ClusterLeaseResponse struct {
	Moved    int `json:"moved"`
	Renewals int `json:"renewals"`
}

// ClusterBatchRequest is one ordered replay sub-batch for this shard.
type ClusterBatchRequest struct {
	Users []int `json:"users"`
}

// ClusterBatchResponse returns the decisions in request order.
type ClusterBatchResponse struct {
	Decisions [][]int `json:"decisions"`
	Epoch     int     `json:"epoch"`
}

// ClusterOp is one /v1 request carried in a /cluster/ops envelope: its path
// (with the query, for a read) and, for a bid or cancel, its JSON body.
type ClusterOp struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body,omitempty"`
}

// ClusterOpsRequest is one envelope: the ops the router queued for this
// shard while its previous envelope was in flight.
type ClusterOpsRequest struct {
	Ops []ClusterOp `json:"ops"`
}

// ClusterOpResult is one op's answer as its /v1 handler wrote it.
type ClusterOpResult struct {
	Status     int             `json:"status"`
	RetryAfter string          `json:"retry_after,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// ClusterOpsResponse answers an envelope, one result per op in op order.
type ClusterOpsResponse struct {
	Results []ClusterOpResult `json:"results"`
}

// ClusterExportRequest names the users to hand off this shard.
type ClusterExportRequest struct {
	Users []int `json:"users"`
}

// ClusterMigration is the export response and the adopt request: the shard
// package's Migration payload plus the serving-layer lifecycle states, so
// the adopting shard reproduces the users exactly (decided-empty versus
// never-arrived matters for duplicate detection).
type ClusterMigration struct {
	Users  []int   `json:"users"`
	Sets   [][]int `json:"sets"`
	States []uint8 `json:"states"`
}

// --- handlers ---------------------------------------------------------------

// handleClusterDemand is POST /cluster/demand — phase 1 of the wire renewal.
func (srv *Server) handleClusterDemand(w http.ResponseWriter, r *http.Request) {
	if !srv.writable(w) {
		return
	}
	_, ok := srv.freezeLeases()
	if !ok {
		httpError(w, http.StatusConflict, "a lease renewal is already in progress")
		return
	}
	pending := srv.queuedUsers()
	if pending == nil {
		pending = []int{}
	}
	writeJSON(w, http.StatusOK, ClusterDemandResponse{
		Loads:    srv.eng.LoadVector(),
		Queued:   pending,
		Renewals: srv.eng.Renewals(),
	})
}

// handleClusterLease is POST /cluster/lease — phase 2: install the budget
// computed by the coordinator and thaw. Holding gate.mu across the install
// excludes the expiry watchdog, so the serving locks are provably still held
// while the engine is touched.
func (srv *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req ClusterLeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	g := &srv.gate
	g.mu.Lock()
	if !g.frozen {
		g.mu.Unlock()
		httpError(w, http.StatusConflict, "no lease renewal in progress (freeze expired?)")
		return
	}
	moved, err := srv.eng.InstallLease(req.Budget)
	if err == nil && srv.walWriter() != nil {
		srv.walAppend(wal.Op{Kind: wal.OpLease, TMillis: nowMillis(), Budget: req.Budget})
		srv.walCommit()
	}
	srv.obs.mirrorEngine(srv.eng, false)
	renewals := srv.eng.Renewals()
	g.release()
	g.mu.Unlock()
	srv.unlockAll()
	if err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ClusterLeaseResponse{Moved: moved, Renewals: renewals})
}

// handleClusterAbort is POST /cluster/abort — thaw without installing.
func (srv *Server) handleClusterAbort(w http.ResponseWriter, r *http.Request) {
	released := srv.abortFreeze()
	writeJSON(w, http.StatusOK, struct {
		Released bool `json:"released"`
	}{Released: released})
}

// handleClusterBatch is POST /cluster/batch — the router's replay-mode
// dispatch of one ordered sub-batch onto this shard, mirroring what
// Engine.DispatchBatch would feed this shard's planner in a single process.
func (srv *Server) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	if !srv.writable(w) {
		return
	}
	var req ClusterBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	for _, u := range req.Users {
		if u < 0 || u >= srv.in.NumUsers() {
			srv.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", u, srv.in.NumUsers()))
			return
		}
		if !srv.eng.Owns(u) {
			srv.obs.errs421.Inc()
			httpError(w, http.StatusMisdirectedRequest, fmt.Sprintf("user %d is not owned by this shard", u))
			return
		}
	}
	// Refuse double dispatch loudly: a router retrying a batch that in fact
	// landed must not replay arrivals (it would corrupt the bit-identical
	// decision stream), and queued users belong to the live path.
	srv.stateMu.Lock()
	for _, u := range req.Users {
		if st := srv.state[u]; st == stateDecided || st == stateQueued {
			srv.stateMu.Unlock()
			srv.obs.errs409.Inc()
			httpError(w, http.StatusConflict, fmt.Sprintf("user %d already %s", u,
				map[uint8]string{stateQueued: "queued", stateDecided: "decided"}[st]))
			return
		}
	}
	srv.stateMu.Unlock()

	srv.lockAll()
	t0 := time.Now()
	srv.eng.DispatchBatch(req.Users)
	elapsed := time.Since(t0)
	if srv.walWriter() != nil {
		srv.walAppend(wal.Op{Kind: wal.OpBatch, TMillis: nowMillis(), Users: req.Users})
		srv.walCommit()
	}
	epoch := srv.eng.Epochs()
	decisions := make([][]int, len(req.Users))
	for i, u := range req.Users {
		decisions[i] = srv.eng.Assignment(srv.eng.ShardOf(u), u)
		if decisions[i] == nil {
			decisions[i] = []int{}
		}
	}
	srv.obs.mirrorEngine(srv.eng, true)
	srv.unlockAll()

	srv.stateMu.Lock()
	for _, u := range req.Users {
		srv.state[u] = stateDecided
	}
	srv.stateMu.Unlock()
	n := len(req.Users)
	srv.obs.arrivals.Add(int64(n))
	srv.obs.decided.Add(int64(n))
	for _, set := range decisions {
		// every decision gets the batch's amortized planner time, so the
		// decision histogram counts exactly what igepa_decided_total does
		srv.obs.decide.ObserveDuration(elapsed / time.Duration(n))
		if len(set) > 0 {
			srv.obs.granted.Inc()
		}
	}
	srv.obs.batches.Inc()
	writeJSON(w, http.StatusOK, ClusterBatchResponse{Decisions: decisions, Epoch: epoch})
}

// handleClusterOps is POST /cluster/ops — the router's coalesced live
// traffic. Every bid is submitted first, through the submitBid a direct
// /v1/bid runs, with every queue held, so an idle shard loop cannot pop the
// first bid alone: released together, the envelope's bids form one
// micro-batch. Cancels and reads then run through their ordinary handlers
// while that batch decides; last, each bid's decision is awaited. Each op is
// answered into its own in-memory writer and returned verbatim. Only
// /v1/bid, /v1/cancel and /v1/assignment?user= ride in an envelope: any
// other path is a per-op 400 that reaches no handler.
func (srv *Server) handleClusterOps(w http.ResponseWriter, r *http.Request) {
	var req ClusterOpsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	n := len(req.Ops)
	hrs := make([]*http.Request, n)
	outs := make([]opWriter, n)
	bids := make([]request, n)
	accepted := make([]bool, n)
	for _, q := range srv.queues {
		q.Hold()
	}
	for i := range req.Ops {
		if hrs[i] = envelopeRequest(&req.Ops[i]); hrs[i] == nil {
			srv.badRequest(&outs[i], fmt.Sprintf("%q cannot ride in an envelope", req.Ops[i].Path))
		} else if hrs[i].URL.Path == "/v1/bid" {
			bids[i], accepted[i] = srv.submitBid(&outs[i], hrs[i].Body)
		}
	}
	for _, q := range srv.queues {
		q.Release()
	}
	for i, hr := range hrs {
		switch {
		case hr == nil:
		case hr.URL.Path == "/v1/cancel":
			srv.handleCancel(&outs[i], hr)
		case hr.URL.Path == "/v1/assignment":
			srv.handleAssignment(&outs[i], hr)
		}
	}
	resp := ClusterOpsResponse{Results: make([]ClusterOpResult, n)}
	for i := range outs {
		if accepted[i] {
			srv.answerBid(&outs[i], bids[i])
		}
		resp.Results[i] = outs[i].result()
	}
	writeJSON(w, http.StatusOK, resp)
}

// envelopeRequest is the request an envelope op stands for, or nil when its
// path is not one of the three an envelope may carry. A read must name a
// user: the full-arrangement dump is a fan-out, not an op.
func envelopeRequest(op *ClusterOp) *http.Request {
	method := http.MethodPost
	switch {
	case op.Path == "/v1/bid", op.Path == "/v1/cancel":
	case strings.HasPrefix(op.Path, "/v1/assignment?"):
		method = http.MethodGet
	default:
		return nil
	}
	hr, err := http.NewRequest(method, op.Path, bytes.NewReader(op.Body))
	if err != nil || (method == http.MethodGet && hr.URL.Query().Get("user") == "") {
		return nil
	}
	return hr
}

// opWriter is the in-memory http.ResponseWriter an envelope op is answered
// into.
type opWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (o *opWriter) Header() http.Header {
	if o.header == nil {
		o.header = make(http.Header)
	}
	return o.header
}

func (o *opWriter) WriteHeader(code int) {
	if o.status == 0 {
		o.status = code
	}
}

func (o *opWriter) Write(p []byte) (int, error) {
	o.WriteHeader(http.StatusOK)
	return o.body.Write(p)
}

// result is what the handler wrote; one that wrote nothing answered 200,
// as net/http would have sent it.
func (o *opWriter) result() ClusterOpResult {
	o.WriteHeader(http.StatusOK)
	return ClusterOpResult{Status: o.status, RetryAfter: o.header.Get("Retry-After"), Body: o.body.Bytes()}
}

// handleClusterExport is POST /cluster/export — hand a user range off this
// shard. The router drains this shard first; queued users are refused.
func (srv *Server) handleClusterExport(w http.ResponseWriter, r *http.Request) {
	if !srv.writable(w) {
		return
	}
	var req ClusterExportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	srv.stateMu.Lock()
	for _, u := range req.Users {
		if u >= 0 && u < srv.in.NumUsers() && srv.state[u] == stateQueued {
			srv.stateMu.Unlock()
			srv.obs.errs409.Inc()
			httpError(w, http.StatusConflict, fmt.Sprintf("user %d still queued; drain before export", u))
			return
		}
	}
	srv.stateMu.Unlock()

	srv.lockAll()
	m, err := srv.eng.ExportUsers(req.Users)
	if err != nil {
		srv.unlockAll()
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	resp := ClusterMigration{Users: m.Users, Sets: m.Sets, States: make([]uint8, len(m.Users))}
	srv.stateMu.Lock()
	for i, u := range m.Users {
		resp.States[i] = srv.state[u]
		srv.state[u] = stateNone
	}
	srv.stateMu.Unlock()
	if srv.walWriter() != nil {
		srv.walAppend(wal.Op{Kind: wal.OpExport, TMillis: nowMillis(), Users: m.Users})
		srv.walCommit()
	}
	srv.unlockAll()
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterAdopt is POST /cluster/adopt — take a migrated user range
// onto this shard: decisions, consumed seats, and lifecycle states.
func (srv *Server) handleClusterAdopt(w http.ResponseWriter, r *http.Request) {
	if !srv.writable(w) {
		return
	}
	var req ClusterMigration
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	if len(req.Sets) != len(req.Users) || (req.States != nil && len(req.States) != len(req.Users)) {
		srv.badRequest(w, fmt.Sprintf(
			"migration with %d users, %d sets, %d states", len(req.Users), len(req.Sets), len(req.States)))
		return
	}
	srv.lockAll()
	if err := srv.eng.AdoptUsers(&shard.Migration{Users: req.Users, Sets: req.Sets}); err != nil {
		srv.unlockAll()
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	srv.stateMu.Lock()
	for i, u := range req.Users {
		if req.States != nil {
			srv.state[u] = req.States[i]
		} else if len(req.Sets[i]) > 0 {
			srv.state[u] = stateDecided
		}
	}
	srv.stateMu.Unlock()
	if srv.walWriter() != nil {
		srv.walAppend(wal.Op{Kind: wal.OpAdopt, TMillis: nowMillis(),
			Users: req.Users, Sets: req.Sets, States: req.States})
		srv.walCommit()
	}
	srv.unlockAll()
	writeJSON(w, http.StatusOK, struct {
		Adopted int `json:"adopted"`
	}{Adopted: len(req.Users)})
}
