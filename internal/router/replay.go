package router

import (
	"fmt"
	"net/http"
	"sync"

	"github.com/ebsn/igepa/internal/batchq"
	"github.com/ebsn/igepa/internal/server"
)

// Replay mode: the router owns the global batch schedule that a single-
// process replay server runs in its replayLoop. Arrivals queue centrally,
// flush strictly every B in arrival order, and before every batch but the
// first the router runs a wire renewal fed with that batch's users — then
// partitions the batch by owner (preserving arrival order within each part)
// and drives each backend's /cluster/batch. Because each backend's engine
// sees exactly the sub-batch, budgets, and order that its shard would see
// inside one S-shard engine, the cluster's decisions are bit-identical to
// ServeSharded on the same arrival order.

// rreq is one queued replay submission; rrep its decision.
type rreq struct {
	user  int
	reply chan rrep // buffered(1); nil for wait:false submissions
}

type rrep struct {
	events   []int
	epoch    int
	failed   bool // dispatch failed (router degraded); submitter gets 503
	shutdown bool // router closed before deciding
}

// replayBid is handleBid's replay-mode tail: duplicate-check against the
// router's lifecycle view, enqueue, park until the batch decides.
func (rt *Router) replayBid(w http.ResponseWriter, req *bidRequest) {
	if req.Bids != nil {
		// A replacement bid set would have to reach the owner's weight table
		// before the decision — a wire step the replay dispatcher does not
		// have. Refuse loudly rather than decide on stale weights.
		httpError(w, http.StatusNotImplemented, "bid replacement is not supported through the router in replay mode")
		return
	}
	rt.stateMu.Lock()
	st := rt.state[req.User]
	if st == stateQueued || st == stateDecided {
		rt.stateMu.Unlock()
		rt.obs.errs409.Inc()
		httpError(w, http.StatusConflict, fmt.Sprintf("user %d already %s", req.User,
			map[uint8]string{stateQueued: "queued", stateDecided: "decided"}[st]))
		return
	}
	rt.state[req.User] = stateQueued
	rt.stateMu.Unlock()

	wait := req.Wait == nil || *req.Wait
	rq := rreq{user: req.User}
	if wait {
		rq.reply = make(chan rrep, 1)
	}
	if err := rt.q.Push(rq); err != nil {
		rt.stateMu.Lock()
		if rt.state[req.User] == stateQueued {
			rt.state[req.User] = st
		}
		rt.stateMu.Unlock()
		if err == batchq.ErrClosed {
			httpError(w, http.StatusServiceUnavailable, "router closing")
			return
		}
		rt.obs.errs429.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	rt.obs.arrivals.Inc()
	if !wait {
		writeJSON(w, http.StatusAccepted, bidResponse{User: req.User, Queued: true})
		return
	}
	rep := <-rq.reply
	switch {
	case rep.shutdown:
		httpError(w, http.StatusServiceUnavailable, "router closed before deciding")
	case rep.failed:
		httpError(w, http.StatusServiceUnavailable, "router degraded: "+rt.degradedReason())
	default:
		writeJSON(w, http.StatusOK, bidResponse{User: req.User, Events: rep.events, Epoch: rep.epoch})
	}
}

// dispatchLoop is the replay dispatcher: one goroutine popping strict
// B-batches and driving the cluster through renewal + partitioned dispatch.
func (rt *Router) dispatchLoop() {
	defer rt.wg.Done()
	buf := make([]rreq, 0, rt.b)
	users := make([]int, 0, rt.b)
	for {
		batch := rt.q.PopBatch(rt.b, false, buf)
		if batch == nil {
			return
		}
		buf = batch
		users = users[:0]
		for i := range batch {
			users = append(users, batch[i].user)
		}
		decisions, epoch, err := rt.dispatchBatch(users)
		if err != nil {
			rt.degrade("batch dispatch failed: " + err.Error())
			rt.stateMu.Lock()
			for _, u := range users {
				if rt.state[u] == stateQueued {
					rt.state[u] = stateNone
				}
			}
			rt.stateMu.Unlock()
			for i := range batch {
				if batch[i].reply != nil {
					batch[i].reply <- rrep{failed: true}
				}
			}
			rt.q.Finish()
			continue
		}
		rt.obs.epochs.Inc()
		rt.stateMu.Lock()
		for _, u := range users {
			rt.state[u] = stateDecided
		}
		rt.stateMu.Unlock()
		for i := range batch {
			rt.obs.decided.Inc()
			if len(decisions[i]) > 0 {
				rt.obs.granted.Inc()
			}
			if batch[i].reply != nil {
				batch[i].reply <- rrep{events: decisions[i], epoch: epoch}
			}
		}
		rt.q.Finish()
	}
}

// dispatchBatch runs one replay batch end to end: renewal (after the first
// batch — the schedule shard.Serve keeps), owner partition preserving
// arrival order, parallel /cluster/batch, decision reassembly in arrival
// order. Any failure is terminal for bit-identity, so errors degrade.
func (rt *Router) dispatchBatch(users []int) ([][]int, int, error) {
	rt.renewMu.Lock()
	defer rt.renewMu.Unlock()
	if rt.degraded.Load() {
		return nil, 0, fmt.Errorf("router degraded: %s", rt.degradedReason())
	}
	if rt.obs.epochs.Load() > 0 {
		if err := rt.renewOnce(users); err != nil {
			rt.obs.renewAborts.Inc()
			return nil, 0, err
		}
	}
	parts := make([][]int, rt.s) // users per owning backend, arrival order
	idxs := make([][]int, rt.s)  // each user's position in the batch
	for i, u := range users {
		o := rt.ownerOf(u)
		parts[o] = append(parts[o], u)
		idxs[o] = append(idxs[o], i)
	}
	decisions := make([][]int, len(users))
	errs := make([]error, rt.s)
	var wg sync.WaitGroup
	for o := 0; o < rt.s; o++ {
		if len(parts[o]) == 0 {
			continue
		}
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			var resp server.ClusterBatchResponse
			if _, err := rt.postJSON(o, "/cluster/batch",
				server.ClusterBatchRequest{Users: parts[o]}, &resp); err != nil {
				errs[o] = err
				return
			}
			if len(resp.Decisions) != len(parts[o]) {
				errs[o] = fmt.Errorf("%d decisions for %d users", len(resp.Decisions), len(parts[o]))
				return
			}
			for k, i := range idxs[o] {
				decisions[i] = resp.Decisions[k]
			}
		}(o)
	}
	wg.Wait()
	for o, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("backend %d: %w", o, err)
		}
	}
	return decisions, int(rt.obs.epochs.Load()) + 1, nil
}
