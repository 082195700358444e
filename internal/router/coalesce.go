package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"github.com/ebsn/igepa/internal/server"
)

// Per-user /v1 traffic — bids, cancels, single-user reads — reaches its
// backend through that backend's coalescer. At most one POST /cluster/ops
// envelope is in flight per backend; requests arriving meanwhile queue, and
// when the envelope returns everything queued (up to envelopeMax ops) leaves
// in the next one. The shard holds its queues while it submits an envelope's
// bids, so they decide as one micro-batch (server.handleClusterOps): the
// envelope is also the batching boundary. There is no timer and no knob: an
// idle backend gets a one-op envelope at once, a busy one gets whatever
// piled up during one round trip.
//
// Renewal, migration and the fan-outs never ride an envelope. They call
// roundTrip directly; an HTTP/1.1 connection carries one exchange at a time
// and the transport dials another rather than wait, so a renewal cannot
// queue behind an envelope that is parked on that renewal's freeze.

// envelopeMax bounds the ops one envelope carries.
const envelopeMax = 256

// op is one /v1 request waiting for, or riding in, an envelope.
type op struct {
	path string
	body []byte
	res  server.ClusterOpResult
	done chan struct{}
}

// coalescer is one backend's queue of ops behind its in-flight envelope.
type coalescer struct {
	mu      sync.Mutex
	wake    *sync.Cond
	pending []*op
	closed  bool
}

func newCoalescer() *coalescer {
	c := &coalescer{}
	c.wake = sync.NewCond(&c.mu)
	return c
}

// close stops the coalescer: later submits answer 503 at once, and the
// sender fails whatever is still queued once its envelope returns.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	c.wake.Broadcast()
	c.mu.Unlock()
}

// submit queues one op for backend si and blocks until its envelope returns.
func (rt *Router) submit(si int, path string, body []byte) server.ClusterOpResult {
	o := &op{path: path, body: body, done: make(chan struct{})}
	c := rt.backends[si].ops
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errorResult(http.StatusServiceUnavailable, "router closing")
	}
	c.pending = append(c.pending, o)
	c.wake.Signal()
	c.mu.Unlock()
	<-o.done
	return o.res
}

// sendLoop is backend si's sender: one envelope at a time, each carrying
// everything queued while the previous one was out.
func (rt *Router) sendLoop(si int) {
	defer rt.wg.Done()
	c := rt.backends[si].ops
	batch := make([]*op, 0, envelopeMax)
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && !c.closed {
			c.wake.Wait()
		}
		if c.closed {
			left := c.pending
			c.pending = nil
			c.mu.Unlock()
			closing := errorResult(http.StatusServiceUnavailable, "router closing")
			for _, o := range left {
				o.res = closing
				close(o.done)
			}
			return
		}
		n := len(c.pending)
		if n > envelopeMax {
			n = envelopeMax
		}
		batch = append(batch[:0], c.pending[:n]...)
		rest := copy(c.pending, c.pending[n:])
		clear(c.pending[rest:])
		c.pending = c.pending[:rest]
		c.mu.Unlock()
		rt.sendEnvelope(si, batch)
	}
}

// sendEnvelope posts one envelope and hands every op its result. roundTrip
// retries the whole envelope on transport errors; once those retries are
// spent every op answers 502 (a bid that did land answers 409 when the
// client retries it). An envelope the backend refused outright gives every
// op that status.
func (rt *Router) sendEnvelope(si int, ops []*op) {
	req := server.ClusterOpsRequest{Ops: make([]server.ClusterOp, len(ops))}
	for i, o := range ops {
		req.Ops[i] = server.ClusterOp{Path: o.path, Body: o.body}
	}
	var resp server.ClusterOpsResponse
	_, err := rt.postJSON(si, "/cluster/ops", req, &resp)
	if err == nil && len(resp.Results) != len(ops) {
		err = fmt.Errorf("backend %d answered %d results for %d ops", si, len(resp.Results), len(ops))
	}
	var fail server.ClusterOpResult
	switch e := err.(type) {
	case nil:
		rt.obs.beOps[si].Add(int64(len(ops)))
	case *statusError:
		rt.obs.beOps[si].Add(int64(len(ops)))
		fail = errorResult(e.status, e.msg)
		fail.RetryAfter = e.retryAfter
	default:
		fail = errorResult(http.StatusBadGateway, err.Error())
	}
	for i, o := range ops {
		if err == nil {
			o.res = resp.Results[i]
		} else {
			o.res = fail
		}
		close(o.done)
	}
}

// proxy answers one /v1 op for user u from the user's owner. A 421 means the
// routing raced a migration: re-resolve the owner once and retry. Returns
// the status written.
func (rt *Router) proxy(w http.ResponseWriter, u int, path string, body []byte) int {
	res := rt.submit(rt.ownerOf(u), path, body)
	if res.Status == http.StatusMisdirectedRequest {
		rt.obs.errs421.Inc()
		if res = rt.submit(rt.ownerOf(u), path, body); res.Status == http.StatusMisdirectedRequest {
			httpError(w, http.StatusMisdirectedRequest,
				fmt.Sprintf("no backend owns user %d (routing table inconsistent)", u))
			return res.Status
		}
	}
	if res.RetryAfter != "" {
		w.Header().Set("Retry-After", res.RetryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	if len(res.Body) > 0 {
		// The envelope carries each body without the newline json.Encoder
		// ends it with; put it back so the answer is byte for byte the
		// shard's.
		_, _ = w.Write(res.Body)
		_, _ = w.Write(newline)
	}
	return res.Status
}

var newline = []byte{'\n'}

// errorResult is a router-made op answer in httpError's shape.
func errorResult(code int, msg string) server.ClusterOpResult {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	return server.ClusterOpResult{Status: code, Body: body}
}
