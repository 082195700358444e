package router

import (
	"fmt"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/server"
)

// This file is the router's half of the two-phase wire renewal (the shard
// side lives in internal/server's /cluster handlers):
//
//	phase 1 (prepare): POST /cluster/demand to every backend in parallel.
//	  Each backend freezes — takes its serving locks, arms the thaw watchdog —
//	  and reports its per-event loads plus the users queued behind the freeze.
//	phase 2 (install): feed the loads into the shard.Coordinator, run the
//	  renewal arithmetic a single-process engine would run, and POST each
//	  shard's absolute budget vector to /cluster/lease, which installs it
//	  under the still-held locks and thaws.
//
// Failure discipline: anything that goes wrong before an install is safe —
// abort every frozen backend and retry on the next trigger. Anything after
// the first install may leave the coordinator's budget table and the
// backends' disagreeing, which breaks the bit-identity contract and (worse)
// could later over-commit an event; the router latches degraded and stops
// accepting writes.

// tryRenew runs one renewal round if none is in flight — the live-mode
// trigger, fired every ~Batch accepted arrivals. Aborted rounds (a backend
// briefly unreachable during prepare) are counted and retried on the next
// trigger; only install failures degrade. A closing router renews no more.
func (rt *Router) tryRenew() {
	if !rt.renewMu.TryLock() {
		return
	}
	defer rt.renewMu.Unlock()
	rt.sinceRenew.Store(0)
	if rt.closed.Load() || rt.degraded.Load() {
		return
	}
	if err := rt.renewOnce(nil); err != nil {
		rt.obs.renewAborts.Inc()
	}
}

// finishRenew records a completed round's wall time and mirrors the
// coordinator counters; the caller holds renewMu.
func (rt *Router) finishRenew(start time.Time) {
	rt.obs.renewDur.ObserveDuration(time.Since(start))
	rt.obs.mirrorCoord(rt.coord.Renewals(), rt.coord.MovedSeats())
}

// renewOnce executes one two-phase renewal round. next is the demand
// snapshot to feed the renewer; nil means "use the queued users the
// backends report" (live mode — the cluster analogue of the in-process
// coordinator reading its own queues). The caller holds renewMu.
func (rt *Router) renewOnce(next []int) error {
	start := time.Now()
	// Phase 1: freeze everything. Parallel — each prepare holds that
	// backend's serving locks until install/abort, so sequential prepares
	// would serialize the freeze windows end to end.
	demands := make([]*server.ClusterDemandResponse, rt.s)
	errs := make([]error, rt.s)
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var d server.ClusterDemandResponse
			if _, err := rt.postJSON(si, "/cluster/demand", struct{}{}, &d); err != nil {
				errs[si] = err
				return
			}
			demands[si] = &d
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			rt.abortAll(demands)
			return fmt.Errorf("router: renewal prepare, backend %d: %w", si, err)
		}
	}

	// Coordinator arithmetic over the frozen loads. A load vector the
	// coordinator rejects means the backend's state diverged from ours —
	// that is a correctness failure, not a transient.
	for si, d := range demands {
		if err := rt.coord.SetLoads(si, d.Loads); err != nil {
			rt.abortAll(demands)
			rt.degrade(fmt.Sprintf("backend %d reported inconsistent loads: %v", si, err))
			return err
		}
	}
	demand := next
	if demand == nil {
		for _, d := range demands {
			demand = append(demand, d.Queued...)
		}
	}
	if _, err := rt.coord.Renew(demand); err != nil {
		// The renewer itself broke the lease invariant — same class of
		// failure a single-process engine would count as a lease error, but
		// here nothing has been installed yet, so abort and stop.
		rt.abortAll(demands)
		rt.degrade("renewal broke the lease invariant: " + err.Error())
		return err
	}

	// Phase 2: install. From the first install onward, a failure leaves the
	// cluster's budget tables unprovably consistent — fail stop.
	installErrs := make([]error, rt.s)
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var resp server.ClusterLeaseResponse
			_, err := rt.postJSON(si, "/cluster/lease",
				server.ClusterLeaseRequest{Budget: rt.coord.Budget(si)}, &resp)
			installErrs[si] = err
		}(si)
	}
	wg.Wait()
	for si, err := range installErrs {
		if err != nil {
			rt.degrade(fmt.Sprintf("lease install on backend %d failed: %v", si, err))
			return fmt.Errorf("router: lease install, backend %d: %w", si, err)
		}
	}
	rt.finishRenew(start)
	return nil
}

// abortAll thaws every backend that acknowledged a prepare (best effort —
// an unreachable backend's watchdog thaws it anyway).
func (rt *Router) abortAll(demands []*server.ClusterDemandResponse) {
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		if demands[si] == nil {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			_, _ = rt.postJSON(si, "/cluster/abort", struct{}{}, nil)
		}(si)
	}
	wg.Wait()
}
