// Package router is the front tier of the distributed serving deployment:
// one stateless-ish process speaking the same /v1 API as internal/server,
// routing each request to the cluster shard (igepa-serve -listen -cluster S
// -index i) that owns the user and running the lease-renewal arithmetic that
// a single-process server runs in-process (see DESIGN.md §10).
//
// The deployment invariant mirrors the shard package's: a router over S
// single-shard backends is the same machine as one S-shard server, cut along
// the shard boundary. Routing uses the identical shard.ShardOf hash, the
// renewal rounds run the identical leaseRenewer code (via shard.Coordinator)
// over loads and queued demand collected from the backends, and replay-mode
// batch dispatch preserves arrival order per shard — so replaying an arrival
// order through the router is bit-identical to ServeSharded on that order.
//
// Renewal is a two-phase wire protocol: POST /cluster/demand freezes each
// backend (grants stop; loads and queued users are reported), the Coordinator
// computes the new budget table, POST /cluster/lease installs each shard's
// absolute vector and thaws. If an install fails, the coordinator's view and
// the backends' budgets can no longer be proven equal, so the router degrades
// fail-stop: writes answer 503 until the operator restarts the tier. Failures
// before any install (a backend down during prepare) are safe: the round
// aborts, frozen backends thaw, and the next trigger retries.
package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsn/igepa/internal/batchq"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
)

// Defaults for Config zero values.
const (
	// DefaultTimeout bounds one backend HTTP call. It must cover a wait:true
	// bid parked behind a micro-batch deadline and a renewal freeze, and the
	// 10s drain barrier a fanned-out /admin/drain can hit.
	DefaultTimeout = 30 * time.Second
	// DefaultRetries is how many times a backend call is retried on a
	// transport error (HTTP status codes are never retried blindly).
	DefaultRetries = 2
)

// Config parameterizes New.
type Config struct {
	// Backends are the shard process base URLs, indexed by shard: Backends[i]
	// must host cluster shard i. Routing, renewal, and migration all key on
	// this order.
	Backends []string
	// Shard carries the cluster-wide planner options. Shards must equal
	// len(Backends); Seed must match every backend (it drives the user→shard
	// hash on both sides); Batch is B, the renewal period.
	Shard shard.Options
	// Replay switches the router to the deterministic dispatcher: one global
	// queue, flush strictly every Shard.Batch arrivals, renewal before every
	// batch but the first — bit-identical to shard.Serve on the same order.
	Replay bool
	// Timeout bounds each backend HTTP call (0 = DefaultTimeout).
	Timeout time.Duration
	// Retries is the transport-error retry budget per call (0 = DefaultRetries;
	// negative = no retries).
	Retries int
	// QueueDepth bounds the replay queue; full answers 429
	// (0 = max(4×Shard.Batch, 256)).
	QueueDepth int
	// DisableMetrics leaves the /metrics and /cluster/metrics endpoints
	// unmounted (benchmark baseline only). The registry behind them is
	// always built: /statsz reads it.
	DisableMetrics bool
}

// user lifecycle states (replay mode's router-side duplicate detection,
// mirroring internal/server's).
const (
	stateNone uint8 = iota
	stateQueued
	stateDecided
	stateCancelled
)

// backend is one shard process: its base URL, a dedicated client whose
// transport keeps a connection pool to that process alone, and the
// coalescer its per-user /v1 traffic rides.
type backend struct {
	base   string
	client *http.Client
	ops    *coalescer
}

// Router is the front-tier process. Construct with New, verify the cluster
// with CheckBackends, serve it with server.Run, Close when done.
type Router struct {
	cfg      Config
	in       *model.Instance
	s, b     int
	backends []backend
	coord    *shard.Coordinator
	mux      *http.ServeMux

	// routeMu guards the migration override table; ownerOf consults it
	// before falling back to the stateless hash.
	routeMu  sync.RWMutex
	override map[int]int

	// renewMu serializes renewal rounds and migrations — both rewrite the
	// coordinator's budget table. sinceRenew counts accepted arrivals since
	// the last round (live mode's trigger).
	renewMu    sync.Mutex
	sinceRenew atomic.Int64

	// degraded is the fail-stop latch: once the coordinator's budget view
	// and the backends' can no longer be proven equal (a failed install or
	// half-applied migration), writes answer 503 forever.
	degraded atomic.Bool
	degMu    sync.Mutex
	degWhy   string

	// replay mode: the global arrival queue, its dispatcher, and the
	// router-side user lifecycle (duplicate detection without a round-trip).
	q       *batchq.Queue[rreq]
	wg      sync.WaitGroup
	stateMu sync.Mutex
	state   []uint8

	closed  atomic.Bool
	started time.Time

	// obs is the router's counter set, behind /statsz, /metrics and the
	// /cluster/metrics fan-in.
	obs *routerObs
}

// New validates the configuration and builds the router (coordinator, per-
// backend connection pools, and in replay mode the dispatcher). It does not
// touch the network; call CheckBackends to verify the cluster shape.
func New(in *model.Instance, cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, &shard.ConfigError{Field: "Backends", Reason: "no backends"}
	}
	opt := cfg.Shard
	if opt.Shards == 0 {
		opt.Shards = len(cfg.Backends)
	}
	if opt.Shards != len(cfg.Backends) {
		return nil, &shard.ConfigError{Field: "Shards", Reason: fmt.Sprintf(
			"Shards = %d but %d backends", opt.Shards, len(cfg.Backends))}
	}
	coord, err := shard.NewCoordinator(in, opt)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	b := opt.Batch
	if b <= 0 {
		b = shard.DefaultBatch
	}
	rt := &Router{
		cfg: cfg, in: in, s: opt.Shards, b: b,
		coord:    coord,
		override: make(map[int]int),
		started:  time.Now(),
	}
	rt.cfg.Shard = opt
	for _, base := range cfg.Backends {
		rt.backends = append(rt.backends, backend{
			base: strings.TrimRight(base, "/"),
			client: &http.Client{
				Timeout: cfg.Timeout,
				Transport: &http.Transport{
					MaxIdleConns:        64,
					MaxIdleConnsPerHost: 64,
					IdleConnTimeout:     90 * time.Second,
				},
			},
			ops: newCoalescer(),
		})
	}
	rt.obs = newRouterObs(rt)
	for si := range rt.backends {
		rt.wg.Add(1)
		go rt.sendLoop(si)
	}
	if cfg.Replay {
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 4 * b
			if depth < 256 {
				depth = 256
			}
		}
		rt.q = batchq.New[rreq](depth)
		rt.state = make([]uint8, in.NumUsers())
		rt.wg.Add(1)
		go rt.dispatchLoop()
	}

	// Every route names its method, so the mux answers any other method
	// with 405 and an Allow header before a handler runs.
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/bid", rt.handleBid)
	rt.mux.HandleFunc("POST /v1/cancel", rt.handleCancel)
	rt.mux.HandleFunc("GET /v1/assignment", rt.handleAssignment)
	rt.mux.HandleFunc("GET /v1/load", rt.handleLoad)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /statsz", rt.handleStatsz)
	if !cfg.DisableMetrics {
		rt.mux.Handle("GET /metrics", rt.obs.reg.Handler(nil))
		rt.mux.HandleFunc("GET /cluster/metrics", rt.handleClusterMetrics)
	}
	rt.mux.HandleFunc("POST /admin/drain", rt.handleDrain)
	rt.mux.HandleFunc("POST /admin/migrate", rt.handleMigrate)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the dispatcher (replay mode) and the envelope senders,
// releasing every parked submitter with a 503, and waits out a renewal round
// in flight. It does not touch the backends — they are separate processes
// with their own lifecycles.
func (rt *Router) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	if rt.q != nil {
		rt.q.Close()
	}
	for i := range rt.backends {
		rt.backends[i].ops.close()
	}
	rt.wg.Wait()
	if rt.q != nil {
		for _, r := range rt.q.TakeAll() {
			if r.reply != nil {
				r.reply <- rrep{shutdown: true}
			}
		}
	}
	// A live renewal runs on its own goroutine under renewMu; taking the
	// lock waits it out, and tryRenew sees closed before starting another.
	rt.renewMu.Lock()
	rt.renewMu.Unlock()
	for i := range rt.backends {
		if tr, ok := rt.backends[i].client.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
}

// CheckBackends probes every backend's /healthz and verifies the cluster
// shape: backend i must host cluster shard i of an S-wide deployment over the
// same instance. Run it at startup (igepa-serve -backends retries until the
// cluster assembles) and before trusting a reconfigured backend list.
func (rt *Router) CheckBackends() error {
	for i := range rt.backends {
		var h struct {
			Status    string              `json:"status"`
			NumUsers  int                 `json:"num_users"`
			NumEvents int                 `json:"num_events"`
			Cluster   *server.ClusterInfo `json:"cluster"`
		}
		if _, err := rt.getJSON(i, "/healthz", &h); err != nil {
			return fmt.Errorf("router: backend %d (%s): %w", i, rt.backends[i].base, err)
		}
		switch {
		case h.Cluster == nil:
			return fmt.Errorf("router: backend %d (%s) is not a cluster shard", i, rt.backends[i].base)
		case h.Cluster.Shards != rt.s:
			return fmt.Errorf("router: backend %d reports a %d-shard cluster, router has %d backends",
				i, h.Cluster.Shards, rt.s)
		case h.Cluster.Index != i:
			return fmt.Errorf("router: backend %d (%s) hosts shard %d; backend order must match shard index",
				i, rt.backends[i].base, h.Cluster.Index)
		case h.NumUsers != rt.in.NumUsers() || h.NumEvents != rt.in.NumEvents():
			return fmt.Errorf("router: backend %d serves a %d-user/%d-event instance, router has %d/%d",
				i, h.NumUsers, h.NumEvents, rt.in.NumUsers(), rt.in.NumEvents())
		}
	}
	return nil
}

// ownerOf resolves the backend serving user u: the migration override when
// one exists, else the stateless hash every tier shares.
func (rt *Router) ownerOf(u int) int {
	rt.routeMu.RLock()
	o, ok := rt.override[u]
	rt.routeMu.RUnlock()
	if ok {
		return o
	}
	return shard.ShardOf(rt.cfg.Shard.Seed, u, rt.s)
}

// degrade latches the fail-stop state with the first reason.
func (rt *Router) degrade(why string) {
	rt.degMu.Lock()
	if !rt.degraded.Load() {
		rt.degWhy = why
		rt.degraded.Store(true)
	}
	rt.degMu.Unlock()
}

func (rt *Router) degradedReason() string {
	rt.degMu.Lock()
	defer rt.degMu.Unlock()
	return rt.degWhy
}

// writable gates the mutating handlers: a closing or degraded router must
// not accept writes it cannot route consistently.
func (rt *Router) writable(w http.ResponseWriter) bool {
	if rt.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "router closing")
		return false
	}
	if rt.degraded.Load() {
		httpError(w, http.StatusServiceUnavailable, "router degraded: "+rt.degradedReason())
		return false
	}
	return true
}

// --- backend HTTP plumbing --------------------------------------------------

// statusError is a non-2xx backend answer carried as an error, preserving
// enough to propagate (status, message, backpressure hint).
type statusError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

// postJSON calls POST base+path on backend si with a JSON body, decoding a
// 2xx answer into resp (when non-nil). Transport errors are retried up to
// cfg.Retries times; HTTP statuses never are (the caller knows which calls
// are idempotent). Non-2xx answers come back as *statusError.
func (rt *Router) postJSON(si int, path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return rt.roundTrip(si, http.MethodPost, path, body, resp)
}

// getJSON calls GET base+path on backend si with transport retries.
func (rt *Router) getJSON(si int, path string, resp any) (int, error) {
	return rt.roundTrip(si, http.MethodGet, path, nil, resp)
}

func (rt *Router) roundTrip(si int, method, path string, body []byte, resp any) (int, error) {
	b := &rt.backends[si]
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, b.base+path, rdr)
		if err != nil {
			return 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		t0 := time.Now()
		res, err := b.client.Do(req)
		if err != nil {
			rt.obs.observeBackend(si, 0, true)
			lastErr = err
			continue
		}
		payload, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			rt.obs.observeBackend(si, 0, true)
			lastErr = err
			continue
		}
		rt.obs.observeBackend(si, time.Since(t0), res.StatusCode >= 500)
		if res.StatusCode < 200 || res.StatusCode > 299 {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(payload, &e)
			if e.Error == "" {
				e.Error = strings.TrimSpace(string(payload))
			}
			return res.StatusCode, &statusError{
				status: res.StatusCode, msg: e.Error, retryAfter: res.Header.Get("Retry-After"),
			}
		}
		if resp != nil {
			if err := json.Unmarshal(payload, resp); err != nil {
				return res.StatusCode, fmt.Errorf("decoding %s: %w", path, err)
			}
		}
		return res.StatusCode, nil
	}
	return 0, fmt.Errorf("backend %d (%s): %w", si, b.base, lastErr)
}

// --- /v1 handlers -----------------------------------------------------------

type bidRequest struct {
	User int   `json:"user"`
	Bids []int `json:"bids,omitempty"`
	Wait *bool `json:"wait,omitempty"`
}

type bidResponse struct {
	User   int   `json:"user"`
	Events []int `json:"events"`
	Epoch  int   `json:"epoch"`
	Queued bool  `json:"queued,omitempty"`
}

func (rt *Router) handleBid(w http.ResponseWriter, r *http.Request) {
	if !rt.writable(w) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	var req bidRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	if req.User < 0 || req.User >= rt.in.NumUsers() {
		rt.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", req.User, rt.in.NumUsers()))
		return
	}
	if rt.cfg.Replay {
		rt.replayBid(w, &req)
		return
	}
	// Live: the owner does its own validation, queuing and duplicate
	// detection; the body travels verbatim.
	status := rt.proxy(w, req.User, "/v1/bid", body)
	if status == http.StatusOK || status == http.StatusAccepted {
		rt.obs.arrivals.Inc()
		if rt.sinceRenew.Add(1) >= int64(rt.b) {
			go rt.tryRenew()
		}
	}
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !rt.writable(w) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	var req struct {
		User int `json:"user"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	if req.User < 0 || req.User >= rt.in.NumUsers() {
		rt.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", req.User, rt.in.NumUsers()))
		return
	}
	if rt.cfg.Replay {
		// The router's lifecycle view is authoritative in replay mode: the
		// user must be decided (not queued behind the current batch).
		rt.stateMu.Lock()
		st := rt.state[req.User]
		rt.stateMu.Unlock()
		if st != stateDecided {
			rt.obs.errs409.Inc()
			httpError(w, http.StatusConflict, fmt.Sprintf("user %d has no active assignment", req.User))
			return
		}
	}
	if rt.proxy(w, req.User, "/v1/cancel", body) == http.StatusOK {
		rt.obs.cancels.Inc()
		if rt.cfg.Replay {
			rt.stateMu.Lock()
			rt.state[req.User] = stateCancelled
			rt.stateMu.Unlock()
		}
	}
}

func (rt *Router) handleAssignment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("user")
	if q == "" {
		rt.handleAssignmentDump(w)
		return
	}
	u, err := strconv.Atoi(q)
	if err != nil || u < 0 || u >= rt.in.NumUsers() {
		rt.badRequest(w, "bad user")
		return
	}
	rt.proxy(w, u, "/v1/assignment?user="+strconv.Itoa(u), nil)
}

// handleAssignmentDump merges the full arrangement: each backend dumps its
// instance-wide set array (non-owned users empty), and the router takes each
// user's row from their owner.
func (rt *Router) handleAssignmentDump(w http.ResponseWriter) {
	dumps := make([][][]int, rt.s)
	errs := make([]error, rt.s)
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var resp struct {
				Sets [][]int `json:"sets"`
			}
			_, errs[si] = rt.getJSON(si, "/v1/assignment", &resp)
			dumps[si] = resp.Sets
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			propagate(w, fmt.Errorf("backend %d: %w", si, err))
			return
		}
	}
	sets := make([][]int, rt.in.NumUsers())
	for u := range sets {
		o := rt.ownerOf(u)
		if u < len(dumps[o]) && dumps[o][u] != nil {
			sets[u] = dumps[o][u]
		} else {
			sets[u] = []int{}
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Sets [][]int `json:"sets"`
	}{Sets: sets})
}

type loadRow struct {
	Event    int `json:"event"`
	Load     int `json:"load"`
	Capacity int `json:"capacity"`
}

// handleLoad sums per-event seat consumption across every backend — capacity
// is a property of the instance, loads are the shards' local grants.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request) {
	nv := rt.in.NumEvents()
	totals := make([]int, nv)
	rows := make([][]loadRow, rt.s)
	errs := make([]error, rt.s)
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			_, errs[si] = rt.getJSON(si, "/v1/load", &rows[si])
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			propagate(w, fmt.Errorf("backend %d: %w", si, err))
			return
		}
		for _, row := range rows[si] {
			if row.Event >= 0 && row.Event < nv {
				totals[row.Event] += row.Load
			}
		}
	}
	q := r.URL.Query().Get("event")
	if q == "" {
		out := make([]loadRow, nv)
		for v := range out {
			out[v] = loadRow{Event: v, Load: totals[v], Capacity: rt.in.Events[v].Capacity}
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 || v >= nv {
		rt.badRequest(w, "bad event")
		return
	}
	writeJSON(w, http.StatusOK, loadRow{Event: v, Load: totals[v], Capacity: rt.in.Events[v].Capacity})
}

// --- admin surface ----------------------------------------------------------

// handleHealthz reports router liveness in the same shape as a server's
// /healthz, so tooling (cmd/igepa-loadgen) points at either tier unchanged.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if rt.degraded.Load() {
		status, code = "degraded: "+rt.degradedReason(), http.StatusInternalServerError
	}
	if rt.closed.Load() {
		status, code = "closing", http.StatusServiceUnavailable
	}
	mode := "live"
	if rt.cfg.Replay {
		mode = "replay"
	}
	writeJSON(w, code, struct {
		Status    string `json:"status"`
		Mode      string `json:"mode"`
		Role      string `json:"role"`
		UptimeMS  int64  `json:"uptime_ms"`
		Shards    int    `json:"shards"`
		Batch     int    `json:"batch"`
		NumUsers  int    `json:"num_users"`
		NumEvents int    `json:"num_events"`
	}{
		Status: status, Mode: mode, Role: "router",
		UptimeMS: time.Since(rt.started).Milliseconds(),
		Shards:   rt.s, Batch: rt.b,
		NumUsers: rt.in.NumUsers(), NumEvents: rt.in.NumEvents(),
	})
}

// handleReadyz: the tier should receive traffic only when every backend is
// ready and the router itself is neither degraded nor closing.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type resp struct {
		Ready    bool     `json:"ready"`
		Role     string   `json:"role"`
		Reason   string   `json:"reason,omitempty"`
		Backends []bool   `json:"backends"`
		Reasons  []string `json:"backend_reasons,omitempty"`
	}
	out := resp{Role: "router", Backends: make([]bool, rt.s), Reasons: make([]string, rt.s)}
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var br struct {
				Ready  bool   `json:"ready"`
				Reason string `json:"reason"`
			}
			status, err := rt.getJSON(si, "/readyz", &br)
			if err != nil && status == 0 {
				out.Reasons[si] = "unreachable"
				return
			}
			// /readyz answers 503 with a body when not ready; decode both.
			if se, ok := err.(*statusError); ok {
				out.Reasons[si] = se.msg
				return
			}
			out.Backends[si] = br.Ready
			out.Reasons[si] = br.Reason
		}(si)
	}
	wg.Wait()
	out.Ready = !rt.closed.Load() && !rt.degraded.Load()
	switch {
	case rt.closed.Load():
		out.Reason = "closing"
	case rt.degraded.Load():
		out.Reason = "degraded: " + rt.degradedReason()
	}
	for si, ok := range out.Backends {
		if !ok {
			out.Ready = false
			if out.Reason == "" {
				out.Reason = fmt.Sprintf("backend %d not ready: %s", si, out.Reasons[si])
			}
		}
	}
	code := http.StatusOK
	if !out.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

// BackendStats is one backend's row in the router's /statsz.
type BackendStats struct {
	Index    int     `json:"index"`
	Utility  float64 `json:"utility"`
	Arrivals int64   `json:"arrivals"`
	Decided  int64   `json:"decided"`
	Renewals int     `json:"lease_renewals"`
	Moved    int     `json:"moved_seats"`
	Error    string  `json:"error,omitempty"`
}

// Stats is the router's /statsz payload: its own counters, the coordinator's
// renewal accounting (the cluster's source of truth for Renewals/MovedSeats),
// and the per-backend utility rows summed into the cluster utility.
type Stats struct {
	Mode           string         `json:"mode"`
	Role           string         `json:"role"`
	UptimeMS       int64          `json:"uptime_ms"`
	Shards         int            `json:"shards"`
	Batch          int            `json:"batch"`
	Arrivals       int64          `json:"arrivals"`
	Decided        int64          `json:"decided"`
	Granted        int64          `json:"granted"`
	Cancels        int64          `json:"cancels"`
	Rejected       int64          `json:"rejected_429"`
	Conflicts      int64          `json:"conflict_409"`
	BadRequests    int64          `json:"bad_request_400"`
	Misrouted      int64          `json:"misrouted_421"`
	RenewErrors    int64          `json:"renew_errors"`
	Epochs         int64          `json:"epochs"`
	LeaseRenewals  int            `json:"lease_renewals"`
	MovedSeats     int            `json:"moved_seats"`
	QueueDepth     int            `json:"queue_depth"`
	Degraded       bool           `json:"degraded"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
	Utility        float64        `json:"utility"`
	PerBackend     []BackendStats `json:"per_backend"`
}

// Stats assembles the admin snapshot (also served as /statsz).
func (rt *Router) Stats() Stats {
	mode := "live"
	if rt.cfg.Replay {
		mode = "replay"
	}
	st := Stats{
		Mode: mode, Role: "router",
		UptimeMS:       time.Since(rt.started).Milliseconds(),
		Shards:         rt.s,
		Batch:          rt.b,
		Arrivals:       rt.obs.arrivals.Load(),
		Decided:        rt.obs.decided.Load(),
		Granted:        rt.obs.granted.Load(),
		Cancels:        rt.obs.cancels.Load(),
		Rejected:       rt.obs.errs429.Load(),
		Conflicts:      rt.obs.errs409.Load(),
		BadRequests:    rt.obs.errs400.Load(),
		Misrouted:      rt.obs.errs421.Load(),
		RenewErrors:    rt.obs.renewAborts.Load(),
		Epochs:         rt.obs.epochs.Load(),
		Degraded:       rt.degraded.Load(),
		DegradedReason: rt.degradedReason(),
		PerBackend:     make([]BackendStats, rt.s),
	}
	rt.renewMu.Lock()
	st.LeaseRenewals = rt.coord.Renewals()
	st.MovedSeats = rt.coord.MovedSeats()
	rt.renewMu.Unlock()
	if rt.q != nil {
		st.QueueDepth = rt.q.Depth()
	}
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var bs server.Stats
			if _, err := rt.getJSON(si, "/statsz", &bs); err != nil {
				st.PerBackend[si] = BackendStats{Index: si, Error: err.Error()}
				return
			}
			st.PerBackend[si] = BackendStats{
				Index: si, Utility: bs.Utility,
				Arrivals: bs.Arrivals, Decided: bs.Decided,
				Renewals: bs.LeaseRenewals, Moved: bs.MovedSeats,
			}
		}(si)
	}
	wg.Wait()
	for si := range st.PerBackend {
		st.Utility += st.PerBackend[si].Utility
	}
	return st
}

func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// handleDrain flushes the router's partial replay batch, then fans the drain
// out to every backend — the end-of-stream barrier for the whole cluster.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	drained := rt.Drain(10 * time.Second)
	var wg sync.WaitGroup
	oks := make([]bool, rt.s)
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var resp struct {
				Drained bool `json:"drained"`
			}
			if _, err := rt.postJSON(si, "/admin/drain", struct{}{}, &resp); err == nil {
				oks[si] = resp.Drained
			}
		}(si)
	}
	wg.Wait()
	for _, ok := range oks {
		drained = drained && ok
	}
	writeJSON(w, http.StatusOK, struct {
		Drained bool  `json:"drained"`
		Decided int64 `json:"decided"`
	}{Drained: drained, Decided: rt.obs.decided.Load()})
}

// Drain blocks until the router's own replay queue is empty and idle (no-op
// in live mode, where the backends hold the queues).
func (rt *Router) Drain(timeout time.Duration) bool {
	if rt.q == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		if rt.q.Idle() {
			return true
		}
		rt.q.Drain()
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// --- helpers ----------------------------------------------------------------

// propagate maps a backend error onto the client response, preserving the
// status and backpressure hint when the error carries them.
func propagate(w http.ResponseWriter, err error) {
	if se, ok := err.(*statusError); ok {
		if se.retryAfter != "" {
			w.Header().Set("Retry-After", se.retryAfter)
		}
		httpError(w, se.status, se.msg)
		return
	}
	httpError(w, http.StatusBadGateway, err.Error())
}

// badRequest answers 400 and counts it; every 400 the router itself sends
// goes through here, so /statsz's bad_request_400 misses none.
func (rt *Router) badRequest(w http.ResponseWriter, msg string) {
	rt.obs.errs400.Inc()
	httpError(w, http.StatusBadRequest, msg)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: msg})
}
