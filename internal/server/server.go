// Package server is the network serving subsystem: an HTTP front-end
// (stdlib net/http) over the sharded planner in internal/shard. It turns
// the offline replay stack into a live request path — bid submissions,
// cancellations and queries hitting the arranger concurrently — which is
// the setting the online/dynamic event-arrangement literature assumes and
// the ROADMAP's production north star requires.
//
// # Request path
//
// POST /v1/bid routes the arriving user to their shard (the same
// shard.ShardOf hash the offline layer uses) and enqueues the request on
// that shard's bounded queue. A per-shard loop decides whatever is queued,
// up to MicroBatch, as soon as it is idle: a lone bid never waits for
// company, and a batch only forms while the loop is busy with the previous
// one. It feeds the engine's lease/planner machinery under a per-shard
// lock. Queues are bounded: when one fills, the server answers
// 429 with Retry-After instead of buffering without limit — backpressure
// is explicit, never hidden in memory growth.
//
// Every ~Batch arrivals a coordinator renews the capacity leases across all
// shards (stop-the-world over the per-shard locks), using the currently
// queued users as the demand predictor — the live analogue of Serve's
// next-batch composition.
//
// # Replay mode
//
// With Config.Replay the server runs one global queue and one dispatcher
// that flushes strictly on batch size (no deadlines), renewing leases
// between batches exactly as shard.Serve does. Because both drive the same
// shard.Engine with the same schedule, replaying an arrival order through
// the HTTP surface is bit-identical to ServeSharded on that order — the
// determinism contract the pinned tests enforce (see DESIGN.md §6).
//
// # Admin surface
//
// /healthz reports liveness plus instance shape; /statsz reports arrival
// counters, queue depths, p50/p99 latency (queue wait, decision, total)
// and per-shard utility, read off the same registry /metrics exports;
// POST /admin/drain
// flushes partial batches (the end-of-stream signal in replay mode).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsn/igepa/internal/batchq"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/stats"
	"github.com/ebsn/igepa/internal/wal"
)

// DefaultFreezeTimeout bounds a wire-renewal freeze (cluster mode): if the
// router dies between /cluster/demand and /cluster/lease, the shard thaws
// itself after this long instead of serving frozen forever.
const DefaultFreezeTimeout = 2 * time.Second

// Config parameterizes New.
type Config struct {
	// Shard configures the underlying engine (shard count S, lease-renewal
	// batch B, planner policy, seed, workers).
	// Shard.RecordLatency is managed by the server.
	Shard shard.Options
	// Replay switches to the deterministic dispatcher: one global queue,
	// flush strictly every Shard.Batch arrivals (drain flushes the tail),
	// bit-identical to shard.Serve on the same submission order.
	Replay bool
	// FlushInterval is ignored.
	//
	// Deprecated: it was the deadline a partial live batch waited for
	// company; a shard loop now decides whatever is queued as soon as it is
	// idle.
	FlushInterval time.Duration
	// MicroBatch caps one live per-shard batch. 0 means
	// max(1, Shard.Batch/S): S shard loops flushing together roughly match
	// one renewal period.
	MicroBatch int
	// QueueDepth bounds each queue; a full queue answers 429. 0 means
	// max(4×Shard.Batch, 256).
	QueueDepth int

	// WALPath, when non-empty, makes serving crash-safe: every accepted
	// operation is appended to a write-ahead log before its reply, and New
	// warm-boots by replaying the log (from the checkpoint's offset, if
	// CheckpointPath names one) through the engine. See internal/wal.
	WALPath string
	// WALSync is the fsync policy (wal.SyncInterval by default) and
	// WALSyncInterval its background period. The trade-off: SyncAlways
	// makes every acked decision power-loss durable, SyncInterval bounds
	// the loss window to one interval, SyncOff trusts the page cache.
	WALSync         wal.SyncPolicy
	WALSyncInterval time.Duration
	// CheckpointPath, when non-empty, enables Checkpoint (and the
	// POST /admin/checkpoint surface): an atomic snapshot that bounds how
	// much WAL a warm boot replays.
	CheckpointPath string
	// Follow runs the server as a read replica: no serving loops, no
	// writes (503), state built by tailing WALPath. /readyz reports ready
	// only within LagBytes of the log's end; POST /admin/promote turns the
	// replica into the leader. Requires WALPath.
	Follow bool
	// LagBytes is the follower readiness bound (0 = DefaultLagBytes).
	LagBytes int64

	// DisableMetrics leaves the /metrics endpoint unmounted. The registry
	// behind it is always built: /statsz reads it, and the WAL and lease
	// error counters in it gate fail-stop and /healthz. Decisions are
	// bit-identical either way — that is the no-perturbation contract,
	// pinned by the replay-equivalence tests.
	DisableMetrics bool
	// SlowLog, when positive, logs every arrival whose end-to-end latency
	// (queue wait + decision + amortized WAL commit) meets the threshold
	// as one structured line, and every lease-renewal round that crosses
	// it with its LP phase breakdown. Arrivals below the threshold cost
	// one comparison and zero allocations.
	SlowLog time.Duration

	// Test seams. freezeTimeout bounds how long a cluster shard stays
	// frozen between a /cluster/demand prepare and the matching
	// /cluster/lease install (or /cluster/abort) before thawing itself
	// (0 = DefaultFreezeTimeout). slowLogOutput receives the SlowLog lines
	// (nil = os.Stderr).
	freezeTimeout time.Duration
	slowLogOutput io.Writer
}

// user lifecycle states
const (
	stateNone uint8 = iota
	stateQueued
	stateDecided
	stateCancelled
)

// Server is the HTTP serving layer. Construct with New, serve it with Run
// (or httptest), and Close when done.
type Server struct {
	cfg   Config
	in    *model.Instance
	eng   *shard.Engine
	s, b  int
	micro int

	mux    *http.ServeMux
	queues []*batchq.Queue[request] // live: one per shard; replay: queues[0] only

	// shardMu[si] serializes all engine access touching shard si; whole-
	// engine operations (renewal, replay dispatch, bid updates, snapshots)
	// take every lock in ascending order.
	shardMu []sync.Mutex
	renewMu sync.Mutex
	// sinceRenew counts arrivals since the last lease renewal (live mode).
	sinceRenew atomic.Int64

	stateMu sync.Mutex
	state   []uint8

	// wal is the durability log (nil without Config.WALPath; nil on a
	// follower until Promote installs one — atomic because handlers read
	// it while Promote writes it). recovered reports what boot replayed
	// (guarded by stateMu for the same reason). overrides records bid
	// replacements for the checkpoint; written and read under every shard
	// lock.
	wal       atomic.Pointer[wal.Writer]
	recovered wal.RecoverInfo
	overrides map[int][]int
	follow    atomic.Bool
	fol       *follower
	// promoteMu serializes Promote against itself: two concurrent
	// /admin/promote calls must produce exactly one leader transition (the
	// loser gets ErrAlreadyLeader), never two sets of serving loops.
	promoteMu sync.Mutex

	// cluster is true when the engine hosts one shard of a multi-process
	// deployment (Config.Shard.ClusterShards > 0); gate is the wire-renewal
	// freeze window.
	cluster bool
	gate    leaseGate

	closed  atomic.Bool
	wg      sync.WaitGroup
	started time.Time

	// obs is the server's counter set, behind both /statsz and /metrics;
	// slow is the -slowlog structured logger (nil unless Config.SlowLog >
	// 0, and then a nil-safe no-op).
	// qlimit is the resolved per-queue depth bound.
	obs    *serverObs
	slow   *obs.SlowLog
	qlimit int
}

// New validates the configuration, builds the engine and starts the
// micro-batching loops. Configuration problems surface as the engine's
// typed errors (*shard.ConfigError, *online.BudgetError).
func New(in *model.Instance, cfg Config) (*Server, error) {
	opt := cfg.Shard
	opt.RecordLatency = cfg.Replay // per-user decision latency inside DispatchBatch
	if opt.ClusterShards > 0 && cfg.Replay {
		// A cluster shard has no replay dispatcher of its own: the router
		// owns the global batch schedule and drives /cluster/batch.
		return nil, &shard.ConfigError{Field: "Replay", Reason: "a cluster shard is driven by the router; run the router in replay mode instead"}
	}
	eng, err := shard.NewEngine(in, opt)
	if err != nil {
		return nil, err
	}
	s := eng.Shards()
	b := eng.Batch()
	srv := &Server{
		cfg: cfg, in: in, eng: eng, s: s, b: b,
		micro:     cfg.MicroBatch,
		shardMu:   make([]sync.Mutex, s),
		state:     make([]uint8, in.NumUsers()),
		overrides: make(map[int][]int),
		started:   time.Now(),
		cluster:   opt.ClusterShards > 0,
	}
	if srv.micro <= 0 {
		srv.micro = b / s
		if srv.micro < 1 {
			srv.micro = 1
		}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * b
		if depth < 256 {
			depth = 256
		}
	}
	srv.qlimit = depth
	if cfg.SlowLog > 0 {
		out := cfg.slowLogOutput
		if out == nil {
			out = os.Stderr
		}
		srv.slow = obs.NewSlowLog(cfg.SlowLog, out)
	}

	nq := s
	if cfg.Replay {
		nq = 1
	}
	for qi := 0; qi < nq; qi++ {
		srv.queues = append(srv.queues, batchq.New[request](depth))
	}
	srv.obs = newServerObs(srv)

	// Durability boot, before any serving goroutine exists: a leader
	// replays checkpoint + WAL into the engine and opens the log for
	// appending; a follower replays the checkpoint and starts tailing.
	switch {
	case cfg.Follow:
		if cfg.WALPath == "" {
			eng.Close()
			return nil, &shard.ConfigError{Field: "WALPath", Reason: "follower mode requires a WAL path to tail"}
		}
		startOff, err := srv.restoreCheckpoint()
		if err != nil {
			eng.Close()
			return nil, err
		}
		srv.finishRecovery()
		srv.startFollower(startOff)
	case cfg.WALPath != "":
		if err := srv.bootDurable(); err != nil {
			eng.Close()
			return nil, err
		}
		srv.startLoops()
	default:
		srv.startLoops()
	}

	// Every route names its method, so the mux answers any other method
	// with 405 and an Allow header before a handler runs.
	srv.mux = http.NewServeMux()
	srv.mux.HandleFunc("POST /v1/bid", srv.handleBid)
	srv.mux.HandleFunc("POST /v1/cancel", srv.handleCancel)
	srv.mux.HandleFunc("GET /v1/assignment", srv.handleAssignment)
	srv.mux.HandleFunc("GET /v1/load", srv.handleLoad)
	srv.mux.HandleFunc("GET /healthz", srv.handleHealthz)
	srv.mux.HandleFunc("GET /readyz", srv.handleReadyz)
	srv.mux.HandleFunc("GET /statsz", srv.handleStatsz)
	if !cfg.DisableMetrics {
		// GET /metrics refreshes the counters whose sources live outside
		// the registry, then serves the exposition; no shard lock is taken
		// anywhere on this path.
		srv.mux.Handle("GET /metrics", srv.obs.reg.Handler(func() { srv.obs.refresh(srv) }))
	}
	srv.mux.HandleFunc("POST /admin/drain", srv.handleDrain)
	srv.mux.HandleFunc("POST /admin/checkpoint", srv.handleCheckpoint)
	srv.mux.HandleFunc("POST /admin/promote", srv.handlePromote)
	if srv.cluster {
		srv.mux.HandleFunc("POST /cluster/demand", srv.handleClusterDemand)
		srv.mux.HandleFunc("POST /cluster/lease", srv.handleClusterLease)
		srv.mux.HandleFunc("POST /cluster/abort", srv.handleClusterAbort)
		srv.mux.HandleFunc("POST /cluster/batch", srv.handleClusterBatch)
		srv.mux.HandleFunc("POST /cluster/ops", srv.handleClusterOps)
		srv.mux.HandleFunc("POST /cluster/export", srv.handleClusterExport)
		srv.mux.HandleFunc("POST /cluster/adopt", srv.handleClusterAdopt)
	}
	return srv, nil
}

// startLoops launches the batching consumers — at New for a leader, at
// Promote for a follower taking over.
func (srv *Server) startLoops() {
	if srv.cfg.Replay {
		srv.wg.Add(1)
		go srv.replayLoop()
		return
	}
	for si := 0; si < srv.s; si++ {
		srv.wg.Add(1)
		go srv.shardLoop(si)
	}
}

// ServeHTTP implements http.Handler.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { srv.mux.ServeHTTP(w, r) }

// Close flushes and stops the batching loops, syncs and closes the WAL and
// releases the engine. In replay mode any partial final batch is dispatched
// first, so every accepted submission still receives its decision — and with
// a WAL, logged: a clean shutdown loses nothing under any fsync policy.
func (srv *Server) Close() {
	if !srv.closed.CompareAndSwap(false, true) {
		return
	}
	// A frozen wire-renewal would hold every shard lock and stall the
	// consumers' final batches; thaw it first (the router's install, if it
	// still arrives, gets a 409).
	srv.abortFreeze()
	for _, q := range srv.queues {
		q.Close()
	}
	srv.wg.Wait()
	// Backstop for the waiter-leak class of shutdown races: the consumers
	// have exited, so any request still queued (a consumer that never ran,
	// or died between pop and reply) would park its submitter on <-reply
	// forever. Hand every leftover a shutdown reply; handleBid turns it
	// into a 503.
	for _, q := range srv.queues {
		for _, r := range q.TakeAll() {
			if r.reply != nil {
				r.reply <- reply{shutdown: true}
			}
		}
	}
	if srv.fol != nil {
		srv.fol.stopLoop()
	}
	if w := srv.walWriter(); w != nil {
		if err := w.Close(); err != nil {
			srv.noteWALError(err)
		}
	}
	srv.eng.Close()
}

// Drain flushes all partial batches and blocks until every queued request
// has been decided (or the timeout passes). It is the end-of-stream barrier
// of replay mode and the test suite's quiescence point.
func (srv *Server) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, q := range srv.queues {
			if !q.Idle() {
				idle = false
				q.Drain()
			}
		}
		if idle {
			// Quiescent: fold any bound events still pending since the last
			// renewal threshold, so end-of-stream /statsz reads current.
			if srv.eng.BoundEnabled() {
				srv.lockAll()
				srv.eng.UpdateBound()
				srv.obs.mirrorEngine(srv.eng, srv.cfg.Replay)
				srv.unlockAll()
			}
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Arrangement snapshots the merged arrangement across shards.
func (srv *Server) Arrangement() (*model.Arrangement, error) {
	srv.lockAll()
	defer srv.unlockAll()
	return srv.eng.Snapshot()
}

func (srv *Server) lockAll() {
	for si := range srv.shardMu {
		srv.shardMu[si].Lock()
	}
}

func (srv *Server) unlockAll() {
	for si := len(srv.shardMu) - 1; si >= 0; si-- {
		srv.shardMu[si].Unlock()
	}
}

// --- batching loops -------------------------------------------------------

// shardLoop is the live-mode micro-batcher for shard si: pop whatever is
// queued, up to micro requests, the moment it is idle, serve them under the
// shard lock, reply, then give the coordinator a chance to renew leases.
// Requests arriving while a batch decides (or commits to the WAL, which so
// becomes a group commit) form the next batch.
func (srv *Server) shardLoop(si int) {
	defer srv.wg.Done()
	buf := make([]request, 0, srv.micro)
	for {
		batch := srv.queues[si].PopBatch(srv.micro, true, buf)
		if batch == nil {
			return
		}
		buf = batch
		srv.shardMu[si].Lock()
		// the lease epoch this batch is served under (renewMu holders also
		// hold every shard lock, so the read is serialized)
		epoch := srv.eng.Renewals() + 1
		logging := srv.walWriter() != nil
		var walDur, walShare time.Duration
		for i := range batch {
			r := &batch[i]
			t0 := time.Now()
			r.events = srv.eng.ArriveOn(si, r.user)
			r.decide = time.Since(t0)
			r.wait = t0.Sub(r.enqueued)
			if logging {
				a0 := time.Now()
				srv.walAppend(wal.Op{Kind: wal.OpBid, TMillis: nowMillis(), User: r.user})
				walDur += time.Since(a0)
			}
		}
		// Commit before any reply leaves: an acked decision is at least
		// flushed to the log (and fsynced under SyncAlways).
		if logging {
			c0 := time.Now()
			srv.walCommit()
			walDur += time.Since(c0)
			walShare = walDur / time.Duration(len(batch))
			srv.obs.walCommit.ObserveDuration(walShare)
		}
		for i := range batch {
			r := &batch[i]
			srv.finishDecision(r, si, r.events, epoch, r.wait, r.decide, walShare)
		}
		srv.shardMu[si].Unlock()
		srv.obs.batches.Inc()
		srv.queues[si].Finish()
		if srv.sinceRenew.Add(int64(len(batch))) >= int64(srv.b) &&
			(srv.s > 1 || srv.eng.BoundEnabled()) {
			srv.tryRenew()
		}
	}
}

// tryRenew runs one lease-renewal round if no other is in progress, using
// the queued users as the demand predictor for the "next batch". When the
// live LP bound is enabled, the same stop-the-world window re-solves it
// over everything served since the last renewal — the live-mode analogue of
// the replay path's per-batch bound update.
func (srv *Server) tryRenew() {
	if !srv.renewMu.TryLock() {
		return
	}
	defer srv.renewMu.Unlock()
	srv.sinceRenew.Store(0)
	pending := srv.queuedUsers()
	r0 := time.Now()
	srv.lockAll()
	var err error
	if srv.s > 1 {
		_, err = srv.eng.RenewLeases(pending)
		// Live-mode renewals ride the micro-batch clock, which is not
		// derivable from the operation stream — so they are logged
		// explicitly, demand snapshot included. (Replay mode logs none:
		// its renewal schedule is a function of the batch records.)
		if srv.walWriter() != nil {
			srv.walAppend(wal.Op{Kind: wal.OpRenew, TMillis: nowMillis(), Users: pending})
			srv.walCommit()
		}
	}
	if srv.eng.BoundEnabled() {
		srv.eng.UpdateBound() // failures land in BoundStats.Errors
	}
	srv.obs.mirrorEngine(srv.eng, false)
	srv.unlockAll()
	if err != nil {
		srv.obs.leaseErrors.Inc()
	}
	if renewDur := time.Since(r0); srv.slow.Slow(renewDur) {
		srv.slow.Note("renew", len(pending), -1, renewDur, nil)
	}
}

// replayLoop is the deterministic dispatcher: global batches of exactly B
// submissions in arrival order (partial only on drain/close), lease renewal
// fed with the batch about to run — the same schedule as shard.Serve, on
// the same engine.
func (srv *Server) replayLoop() {
	defer srv.wg.Done()
	buf := make([]request, 0, srv.b)
	users := make([]int, 0, srv.b)
	for {
		batch := srv.queues[0].PopBatch(srv.b, false, buf)
		if batch == nil {
			return
		}
		buf = batch
		users = users[:0]
		for i := range batch {
			users = append(users, batch[i].user)
		}
		srv.lockAll()
		if srv.eng.Epochs() > 0 && srv.s > 1 {
			if _, err := srv.eng.RenewLeases(users); err != nil {
				srv.obs.leaseErrors.Inc()
			}
		}
		t0 := time.Now()
		srv.eng.DispatchBatch(users)
		// One batch record stands in for the renewal and every decision:
		// replay re-derives the renewal from engine state (see
		// shard.Engine.Apply), exactly as the dispatch above did.
		var walShare time.Duration
		if srv.walWriter() != nil {
			w0 := time.Now()
			srv.walAppend(wal.Op{Kind: wal.OpBatch, TMillis: nowMillis(), Users: users})
			srv.walCommit()
			walShare = time.Since(w0) / time.Duration(len(batch))
			srv.obs.walCommit.ObserveDuration(walShare)
		}
		epoch := srv.eng.Epochs()
		for i := range batch {
			r := &batch[i]
			si := srv.eng.ShardOf(r.user)
			events := srv.eng.Assignment(si, r.user)
			srv.finishDecision(r, si, events, epoch, t0.Sub(r.enqueued), srv.eng.LatencyOf(r.user), walShare)
		}
		// Mirror the engine-owned counters (renewals, moved seats, LP solver
		// stats) into the registry while the dispatcher still holds every
		// shard lock — scrapes read the mirrors, never these locks.
		srv.obs.mirrorEngine(srv.eng, true)
		srv.unlockAll()
		srv.queues[0].Finish()
	}
}

// finishDecision records metrics, advances the user state and delivers the
// reply (if the submitter is waiting). Everything recorded here is atomic
// bumps — no locks beyond stateMu, no allocations (pinned by
// TestArrivalPathAllocs) — and the slow-arrival trace builds its span list
// only after the threshold comparison says the line will actually print.
func (srv *Server) finishDecision(r *request, si int, events []int, epoch int, wait, decide, walShare time.Duration) {
	srv.stateMu.Lock()
	srv.state[r.user] = stateDecided
	srv.stateMu.Unlock()
	srv.obs.decided.Inc()
	if len(events) > 0 {
		srv.obs.granted.Inc()
	}
	total := wait + decide + walShare
	srv.obs.observeDecision(wait, decide, total)
	if srv.slow.Slow(total) {
		srv.slow.Note("bid", r.user, si, total, []obs.Span{
			{Name: "wait", D: wait},
			{Name: "decide", D: decide},
			{Name: "wal", D: walShare},
		})
	}
	if r.reply != nil {
		r.reply <- reply{events: events, epoch: epoch, wait: wait}
	}
}

// --- handlers -------------------------------------------------------------

type bidRequest struct {
	User int   `json:"user"`
	Bids []int `json:"bids,omitempty"` // optional replacement bid set
	// Wait, when false, returns 202 immediately; the decision is available
	// later via /v1/assignment. Default true.
	Wait *bool `json:"wait,omitempty"`
}

type bidResponse struct {
	User   int   `json:"user"`
	Events []int `json:"events"`
	Epoch  int   `json:"epoch"`
	Queued bool  `json:"queued,omitempty"`
	WaitUS int64 `json:"queue_wait_us,omitempty"`
}

func (srv *Server) handleBid(w http.ResponseWriter, r *http.Request) {
	if rq, ok := srv.submitBid(w, r.Body); ok {
		srv.answerBid(w, rq)
	}
}

// submitBid is the front half of a bid: decode, validate, ownership, the
// state claim and the enqueue. A refused bid is answered on w and reports
// false; an accepted one is returned for answerBid. /cluster/ops submits
// every bid of an envelope through here before any of them is answered.
func (srv *Server) submitBid(w http.ResponseWriter, body io.Reader) (request, bool) {
	if !srv.writable(w) {
		return request{}, false
	}
	var req bidRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return request{}, false
	}
	if req.User < 0 || req.User >= srv.in.NumUsers() {
		srv.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", req.User, srv.in.NumUsers()))
		return request{}, false
	}
	if !srv.owned(w, req.User) {
		return request{}, false
	}
	if req.Bids != nil {
		if err := srv.checkBids(req.Bids); err != nil {
			srv.badRequest(w, err.Error())
			return request{}, false
		}
	}

	srv.stateMu.Lock()
	st := srv.state[req.User]
	if st == stateQueued || st == stateDecided {
		srv.stateMu.Unlock()
		srv.obs.errs409.Inc()
		httpError(w, http.StatusConflict, fmt.Sprintf("user %d already %s", req.User,
			map[uint8]string{stateQueued: "queued", stateDecided: "decided"}[st]))
		return request{}, false
	}
	srv.state[req.User] = stateQueued
	srv.stateMu.Unlock()

	wait := req.Wait == nil || *req.Wait
	rq := request{user: req.User, enqueued: time.Now()}
	if wait {
		rq.reply = make(chan reply, 1)
	}
	var err error
	if req.Bids != nil {
		// Enqueue and bid replacement must be atomic against the batching
		// loops: holding every shard lock keeps the consumer from deciding
		// the request before the new bids (and the rebuilt weight table)
		// are in place, and a rejected enqueue leaves the instance
		// untouched — a 429 must not mutate state the client was told was
		// not accepted.
		srv.lockAll()
		if err = srv.enqueue(rq); err == nil {
			srv.applyBidUpdateLocked(req.User, req.Bids)
		}
		srv.unlockAll()
	} else {
		err = srv.enqueue(rq)
	}
	if err != nil {
		srv.rollbackQueued(req.User, st)
		if err == batchq.ErrClosed {
			srv.obs.errs503.Inc()
			httpError(w, http.StatusServiceUnavailable, "server closing")
			return request{}, false
		}
		srv.obs.errs429.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full")
		return request{}, false
	}
	srv.obs.arrivals.Inc()
	return rq, true
}

// answerBid is the back half of an accepted bid: 202 for a wait:false
// submission, otherwise park until the micro-batch decides and render it.
func (srv *Server) answerBid(w http.ResponseWriter, rq request) {
	if rq.reply == nil {
		writeJSON(w, http.StatusAccepted, bidResponse{User: rq.user, Queued: true})
		return
	}
	rep := <-rq.reply
	if rep.shutdown {
		srv.obs.errs503.Inc()
		httpError(w, http.StatusServiceUnavailable, "server closed before deciding")
		return
	}
	writeJSON(w, http.StatusOK, bidResponse{
		User: rq.user, Events: rep.events, Epoch: rep.epoch, WaitUS: rep.wait.Microseconds(),
	})
}

// rollbackQueued undoes submitBid's optimistic stateQueued claim after a
// failed enqueue — but only if the user is still in stateQueued. Between the
// claim and the rollback the state lock is dropped, so a concurrent
// transition (a racing duplicate submission that won the queue slot and got
// decided, or a cancel of that decision) may have landed; restoring the
// pre-submit snapshot over it would clobber a real decision.
func (srv *Server) rollbackQueued(u int, prev uint8) {
	srv.stateMu.Lock()
	if srv.state[u] == stateQueued {
		srv.state[u] = prev
	}
	srv.stateMu.Unlock()
}

// owned gates the per-user handlers in cluster mode: a request for a user
// this shard does not own answers 421 Misdirected Request, telling the
// router its routing table is stale (mid-migration) and to re-resolve.
func (srv *Server) owned(w http.ResponseWriter, u int) bool {
	if srv.cluster && !srv.eng.Owns(u) {
		srv.obs.errs421.Inc()
		httpError(w, http.StatusMisdirectedRequest, fmt.Sprintf("user %d is not owned by this shard", u))
		return false
	}
	return true
}

// writable gates the mutating handlers: a follower serves reads only, and
// a leader whose WAL has failed must not ack decisions it cannot make
// durable. Answers 503 and reports false when writes are off.
func (srv *Server) writable(w http.ResponseWriter) bool {
	if srv.follow.Load() {
		srv.obs.errs503.Inc()
		httpError(w, http.StatusServiceUnavailable, "read-only follower; POST /admin/promote to take over")
		return false
	}
	if srv.walBroken() {
		srv.obs.errs503.Inc()
		httpError(w, http.StatusServiceUnavailable, "write-ahead log failed; not accepting writes")
		return false
	}
	return true
}

// badRequest answers 400 and counts it; every 400 the server sends goes
// through here, so /statsz's bad_request_400 misses none.
func (srv *Server) badRequest(w http.ResponseWriter, msg string) {
	srv.obs.errs400.Inc()
	httpError(w, http.StatusBadRequest, msg)
}

// enqueue routes the request to the owning queue.
func (srv *Server) enqueue(rq request) error {
	if srv.cfg.Replay {
		return srv.queues[0].Push(rq)
	}
	return srv.queues[srv.eng.ShardOf(rq.user)].Push(rq)
}

// queuedUsers snapshots every queued user — the renewal demand predictor.
func (srv *Server) queuedUsers() []int {
	var users []int
	for _, q := range srv.queues {
		q.Each(func(rq *request) { users = append(users, rq.user) })
	}
	return users
}

// checkBids validates a replacement bid set: event indices in range, no
// negatives. The set is normalized (sorted, deduplicated) by applyBidUpdate.
func (srv *Server) checkBids(bids []int) error {
	for _, v := range bids {
		if v < 0 || v >= srv.in.NumEvents() {
			return fmt.Errorf("bid for unknown event %d (|V| = %d)", v, srv.in.NumEvents())
		}
	}
	return nil
}

// applyBidUpdateLocked replaces the user's bid set before their decision.
// Bids shape the weight table and the per-event bidder lists, so the update
// is a stop-the-world: the caller holds every shard lock while the instance
// caches rebuild (shard.Engine.SetBids — the same code path WAL replay
// takes, so a logged update replays bit-identically). The WAL record is
// appended under the same locks: no decision anywhere can interleave
// between the update and its log entry.
func (srv *Server) applyBidUpdateLocked(u int, bids []int) {
	norm := srv.eng.SetBids(u, bids)
	srv.overrides[u] = norm
	srv.walAppend(wal.Op{Kind: wal.OpSetBids, TMillis: nowMillis(), User: u, Bids: norm})
}

type cancelRequest struct {
	User int `json:"user"`
}

type cancelResponse struct {
	User  int   `json:"user"`
	Freed []int `json:"freed"`
}

// handleCancel revokes a decided user's assignment: their seats return to
// the owning shard's lease and the user may submit again. Cancellations act
// immediately (they do not ride the micro-batch queue): a cancel is a
// capacity release, and holding freed seats back only delays better use of
// them.
func (srv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !srv.writable(w) {
		return
	}
	var req cancelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		srv.badRequest(w, "bad JSON: "+err.Error())
		return
	}
	if req.User < 0 || req.User >= srv.in.NumUsers() {
		srv.badRequest(w, fmt.Sprintf("user %d outside [0,%d)", req.User, srv.in.NumUsers()))
		return
	}
	if !srv.owned(w, req.User) {
		return
	}
	srv.stateMu.Lock()
	if srv.state[req.User] != stateDecided {
		srv.stateMu.Unlock()
		srv.obs.errs409.Inc()
		httpError(w, http.StatusConflict, fmt.Sprintf("user %d has no active assignment", req.User))
		return
	}
	srv.state[req.User] = stateCancelled
	srv.stateMu.Unlock()

	si := srv.eng.ShardOf(req.User)
	srv.shardMu[si].Lock()
	freed := srv.eng.CancelOn(si, req.User)
	if srv.walWriter() != nil {
		srv.walAppend(wal.Op{Kind: wal.OpCancel, TMillis: nowMillis(), User: req.User})
		srv.walCommit()
	}
	srv.shardMu[si].Unlock()
	srv.obs.cancels.Inc()
	if freed == nil {
		freed = []int{}
	}
	writeJSON(w, http.StatusOK, cancelResponse{User: req.User, Freed: freed})
}

type assignmentResponse struct {
	User    int    `json:"user"`
	State   string `json:"state"`
	Events  []int  `json:"events"`
	Decided bool   `json:"decided"`
}

// handleAssignment returns one user's state and events (?user=N), or the
// full arrangement dump (no parameter) — the replay tooling's exit path.
func (srv *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("user")
	if q == "" {
		arr, err := srv.Arrangement()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Sets [][]int `json:"sets"`
		}{Sets: arr.Sets})
		return
	}
	u, err := strconv.Atoi(q)
	if err != nil || u < 0 || u >= srv.in.NumUsers() {
		srv.badRequest(w, "bad user")
		return
	}
	if !srv.owned(w, u) {
		return
	}
	srv.stateMu.Lock()
	st := srv.state[u]
	srv.stateMu.Unlock()
	si := srv.eng.ShardOf(u)
	srv.shardMu[si].Lock()
	events := srv.eng.Assignment(si, u)
	srv.shardMu[si].Unlock()
	if events == nil {
		events = []int{}
	}
	names := map[uint8]string{stateNone: "unknown", stateQueued: "queued", stateDecided: "decided", stateCancelled: "cancelled"}
	writeJSON(w, http.StatusOK, assignmentResponse{
		User: u, State: names[st], Events: events, Decided: st == stateDecided,
	})
}

type loadResponse struct {
	Event    int `json:"event"`
	Load     int `json:"load"`
	Capacity int `json:"capacity"`
}

// handleLoad returns one event's seat consumption (?event=N) or all events'.
func (srv *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("event")
	srv.lockAll()
	defer srv.unlockAll()
	if q == "" {
		out := make([]loadResponse, srv.in.NumEvents())
		for v := range out {
			out[v] = loadResponse{Event: v, Load: srv.eng.EventLoad(v), Capacity: srv.in.Events[v].Capacity}
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 || v >= srv.in.NumEvents() {
		srv.badRequest(w, "bad event")
		return
	}
	writeJSON(w, http.StatusOK, loadResponse{Event: v, Load: srv.eng.EventLoad(v), Capacity: srv.in.Events[v].Capacity})
}

// ClusterInfo identifies a cluster shard in /healthz: which slice of a how-
// wide deployment this process hosts. The router validates it at backend
// registration.
type ClusterInfo struct {
	Shards int `json:"shards"`
	Index  int `json:"index"`
}

type healthResponse struct {
	Status    string       `json:"status"`
	Mode      string       `json:"mode"`
	Role      string       `json:"role"`
	UptimeMS  int64        `json:"uptime_ms"`
	Shards    int          `json:"shards"`
	Batch     int          `json:"batch"`
	NumUsers  int          `json:"num_users"`
	NumEvents int          `json:"num_events"`
	Cluster   *ClusterInfo `json:"cluster,omitempty"`
}

// handleHealthz is liveness: "is this process up and sane". Whether it
// should receive traffic is /readyz's question (a catching-up follower is
// alive but not ready).
func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if srv.obs.leaseErrors.Load() > 0 {
		status, code = "degraded: lease invariant violated", http.StatusInternalServerError
	}
	if srv.walBroken() {
		status, code = "degraded: write-ahead log failed", http.StatusInternalServerError
	}
	if srv.closed.Load() {
		status, code = "closing", http.StatusServiceUnavailable
	}
	resp := healthResponse{
		Status: status, Mode: srv.modeName(), Role: srv.role(),
		UptimeMS: time.Since(srv.started).Milliseconds(),
		Shards:   srv.s, Batch: srv.b, NumUsers: srv.in.NumUsers(), NumEvents: srv.in.NumEvents(),
	}
	if srv.cluster {
		resp.Cluster = &ClusterInfo{Shards: srv.eng.ClusterShards(), Index: srv.eng.ClusterIndex()}
	}
	writeJSON(w, code, resp)
}

func (srv *Server) modeName() string {
	if srv.cfg.Replay {
		return "replay"
	}
	return "live"
}

// ShardStats is one shard's row in the /statsz report.
type ShardStats struct {
	Arrivals   int     `json:"arrivals"`
	Utility    float64 `json:"utility"`
	QueueDepth int     `json:"queue_depth"`
}

// CacheStats is always zero.
//
// Deprecated: the engine no longer caches admissible sets (see
// shard.Options.CacheSize); the "cache" object stays on /statsz for clients
// that read it.
type CacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Stats is the /statsz payload.
type Stats struct {
	Mode          string `json:"mode"`
	UptimeMS      int64  `json:"uptime_ms"`
	Shards        int    `json:"shards"`
	Batch         int    `json:"batch"`
	MicroBatch    int    `json:"micro_batch"`
	QueueLimit    int    `json:"queue_limit"`
	Arrivals      int64  `json:"arrivals"`
	Decided       int64  `json:"decided"`
	Granted       int64  `json:"granted"`
	Cancels       int64  `json:"cancels"`
	Rejected      int64  `json:"rejected_429"`
	Conflicts     int64  `json:"conflict_409"`
	BadRequests   int64  `json:"bad_request_400"`
	Misrouted     int64  `json:"misrouted_421,omitempty"`
	LeaseErrors   int64  `json:"lease_errors"`
	QueueDepth    []int  `json:"queue_depth"`
	Epochs        int    `json:"epochs"`
	LeaseRenewals int    `json:"lease_renewals"`
	MovedSeats    int    `json:"moved_seats"`

	// Latency percentiles over the process lifetime, read off the
	// igepa_*_seconds histograms: each is a bucket's upper bound, so the
	// resolution is the factor-2 bucket layout's. Total includes the
	// amortized WAL commit.
	QueueWait Percentiles `json:"queue_wait"`
	Decision  Percentiles `json:"decision"`
	Total     Percentiles `json:"total"`

	Cache    CacheStats   `json:"cache"`
	PerShard []ShardStats `json:"per_shard"`
	Utility  float64      `json:"utility"`

	// Bound is the live LP bound report (nil unless the engine runs with
	// shard.Options.LiveBound). Update is the planner-update latency —
	// reported separately from the decision percentiles above so the
	// bound's cost is visible next to the serving tails.
	Bound *BoundReport `json:"live_bound,omitempty"`

	// LP reports the live bound's persistent simplex solver (nil unless
	// shard.Options.LiveBound): warm-start effectiveness (cold/warm/fast-
	// finish splits, pivots, fallbacks), factorization churn and where the
	// solve time goes per phase. The same numbers /metrics exports as
	// igepa_lp_* series.
	LP *LPReport `json:"lp,omitempty"`

	// WAL is the durability report (nil without Config.WALPath): append
	// traffic, fsync counts, the per-decision append+commit percentiles to
	// hold against Decision, and what the last boot recovered. Follower is
	// the replica's lag/readiness view (nil on a leader).
	WAL      *WALStats      `json:"wal,omitempty"`
	Follower *FollowerStats `json:"follower,omitempty"`
}

// Percentiles is a (p50, p99) pair in microseconds, the /statsz currency.
type Percentiles struct {
	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
}

// BoundReport is the /statsz view of the live LP-bound tracker.
type BoundReport struct {
	RemainingLP float64     `json:"remaining_lp"`
	Updates     int         `json:"updates"`
	Errors      int         `json:"errors"`
	Update      Percentiles `json:"update"`
	WarmSolves  int         `json:"warm_solves"`
	ColdSolves  int         `json:"cold_solves"`
}

// SolverReport is one persistent LP solver's /statsz row. The fallback_*
// fields break the warm-abandonment count down by reason (singular patched
// basis, repair stall, dual-unbounded bound infeasibility, structural
// error); fallback_infeasible stays the stall+bound aggregate for existing
// dashboards.
type SolverReport struct {
	ColdSolves              int   `json:"cold_solves"`
	WarmSolves              int   `json:"warm_solves"`
	FastFinishes            int   `json:"fast_finishes"`
	WarmPivots              int   `json:"warm_pivots"`
	FallbackSingular        int   `json:"fallback_singular"`
	FallbackInfeasible      int   `json:"fallback_infeasible"`
	FallbackRepairStall     int   `json:"fallback_repair_stall"`
	FallbackBoundInfeasible int   `json:"fallback_bound_infeasible"`
	FallbackError           int   `json:"fallback_error"`
	Refactorizations        int64 `json:"refactorizations"`
	EtaChainLength          int   `json:"eta_chain_length"`

	HypersparseFtran    int64 `json:"hypersparse_ftran"`
	HypersparseBtran    int64 `json:"hypersparse_btran"`
	BudgetExhausted     int64 `json:"budget_exhausted"`
	PartialWarmCutovers int64 `json:"partial_warm_cutovers"`

	FtranNS   int64 `json:"ftran_ns"`
	BtranNS   int64 `json:"btran_ns"`
	PricingNS int64 `json:"pricing_ns"`
	SyncNS    int64 `json:"sync_ns"`
	UpdateNS  int64 `json:"update_ns"`
	FactorNS  int64 `json:"factor_ns"`
}

func solverReport(st lp.SolverStats, t lp.PhaseTimers) SolverReport {
	return SolverReport{
		ColdSolves:              st.ColdSolves,
		WarmSolves:              st.WarmSolves,
		FastFinishes:            st.FastFinishes,
		WarmPivots:              st.WarmPivots,
		FallbackSingular:        st.FallbackSingular,
		FallbackInfeasible:      st.FallbackInfeasible,
		FallbackRepairStall:     st.FallbackRepairStall,
		FallbackBoundInfeasible: st.FallbackBoundInfeasible,
		FallbackError:           st.FallbackError,
		Refactorizations:        st.Refactorizations,
		EtaChainLength:          st.EtaLen,
		HypersparseFtran:        t.HypersparseFtran,
		HypersparseBtran:        t.HypersparseBtran,
		BudgetExhausted:         t.BudgetExhausted,
		PartialWarmCutovers:     t.PartialWarmCutovers,
		FtranNS:                 t.Ftran.Nanoseconds(),
		BtranNS:                 t.Btran.Nanoseconds(),
		PricingNS:               t.Pricing.Nanoseconds(),
		SyncNS:                  t.Sync.Nanoseconds(),
		UpdateNS:                t.Update.Nanoseconds(),
		FactorNS:                t.Factor.Nanoseconds(),
	}
}

// LPReport is the /statsz view of the live-bound shadow planner's LP
// solver, present only when the live bound is enabled.
type LPReport struct {
	Bound SolverReport `json:"bound"`
}

// Stats assembles the admin snapshot (also served as /statsz).
func (srv *Server) Stats() Stats {
	st := Stats{
		Mode: srv.modeName(), UptimeMS: time.Since(srv.started).Milliseconds(),
		Shards: srv.s, Batch: srv.b, MicroBatch: srv.micro,
		QueueLimit:  srv.qlimit,
		Arrivals:    srv.obs.arrivals.Load(),
		Decided:     srv.obs.decided.Load(),
		Granted:     srv.obs.granted.Load(),
		Cancels:     srv.obs.cancels.Load(),
		Rejected:    srv.obs.errs429.Load(),
		Conflicts:   srv.obs.errs409.Load(),
		BadRequests: srv.obs.errs400.Load(),
		Misrouted:   srv.obs.errs421.Load(),
		LeaseErrors: srv.obs.leaseErrors.Load(),
		QueueWait:   percentiles(srv.obs.queueWait),
		Decision:    percentiles(srv.obs.decide),
		Total:       percentiles(srv.obs.total),
	}
	for _, q := range srv.queues {
		st.QueueDepth = append(st.QueueDepth, q.Depth())
	}
	srv.lockAll()
	// replay counts global dispatched batches in the engine; live counts
	// micro-batches at the server (the engine's DispatchBatch never runs)
	if srv.cfg.Replay {
		st.Epochs = srv.eng.Epochs()
	} else {
		st.Epochs = int(srv.obs.batches.Load())
	}
	st.LeaseRenewals = srv.eng.Renewals()
	st.MovedSeats = srv.eng.MovedSeats()
	bs := srv.eng.BoundStats()
	lps := srv.eng.LPStats() // needs the shard locks we hold
	for si := 0; si < srv.s; si++ {
		row := ShardStats{Arrivals: srv.eng.ArrivalsOn(si), Utility: srv.eng.ShardUtility(si)}
		if !srv.cfg.Replay {
			row.QueueDepth = srv.queues[si].Depth()
		}
		st.PerShard = append(st.PerShard, row)
		st.Utility += row.Utility
	}
	srv.unlockAll()
	st.WAL = srv.walStats()
	if srv.fol != nil {
		fs := srv.fol.stats()
		st.Follower = &fs
	}
	if bs != nil {
		st.LP = &LPReport{Bound: solverReport(lps.Bound, lps.BoundTimers)}
		ps := stats.DurationPercentiles(bs.UpdateLatencies, 0.50, 0.99)
		st.Bound = &BoundReport{
			RemainingLP: bs.Remaining,
			Updates:     bs.Updates,
			Errors:      bs.Errors,
			Update:      Percentiles{P50Micros: ps[0].Microseconds(), P99Micros: ps[1].Microseconds()},
			WarmSolves:  bs.Solver.WarmSolves,
			ColdSolves:  bs.Solver.ColdSolves,
		}
	}
	return st
}

func (srv *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.Stats())
}

type drainResponse struct {
	Drained bool  `json:"drained"`
	Decided int64 `json:"decided"`
}

func (srv *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	ok := srv.Drain(10 * time.Second)
	writeJSON(w, http.StatusOK, drainResponse{Drained: ok, Decided: srv.obs.decided.Load()})
}

// --- helpers --------------------------------------------------------------

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
