package router

// The router's one counter set plus the cluster-wide fan-in: the front
// tier keeps its own counters (arrivals and error codes, per-backend
// request/error/latency, renewal rounds, migration phases, the degraded
// latch) in one registry that /statsz reads and /metrics exports, and
// /cluster/metrics scrapes every backend's /metrics and re-exports the
// merged exposition with a shard label — one scrape target for the whole
// deployment.
//
// The recording disciplines mirror internal/server's (DESIGN.md §12): the
// proxy hot path records through atomics only; coordinator-owned counters
// (renewal rounds, moved seats) are mirrored under renewMu at the points
// that already hold it; everything else is read at scrape time.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/obs"
)

// routerObs bundles the registry and the handles the proxy paths touch.
type routerObs struct {
	reg *obs.Registry

	arrivals, decided, granted, cancels *obs.Counter
	errs400, errs409, errs421, errs429  *obs.Counter
	renewAborts                         *obs.Counter
	renewRounds, movedSeats             *obs.Counter
	epochs                              *obs.Counter
	renewDur                            *obs.Histogram

	migratePhases map[string]*obs.Counter
	migratedUsers *obs.Counter
	migratedSeats *obs.Counter

	// per-backend, indexed by shard
	beReqs, beErrs, beOps []*obs.Counter
	beLat                 []*obs.Histogram

	scrapeErrors *obs.Counter
}

func newRouterObs(rt *Router) *routerObs {
	reg := obs.NewRegistry()
	o := &routerObs{
		reg:         reg,
		arrivals:    reg.Counter("igepa_router_arrivals_total", "Accepted bid submissions."),
		decided:     reg.Counter("igepa_router_decided_total", "Decisions delivered (replay dispatcher)."),
		granted:     reg.Counter("igepa_router_granted_total", "Decisions that granted at least one event."),
		cancels:     reg.Counter("igepa_router_cancels_total", "Assignment cancellations routed."),
		errs400:     reg.Counter("igepa_router_http_errors_total", "Router-observed error responses by status code.", obs.L("code", "400")),
		errs409:     reg.Counter("igepa_router_http_errors_total", "Router-observed error responses by status code.", obs.L("code", "409")),
		errs421:     reg.Counter("igepa_router_http_errors_total", "Router-observed error responses by status code.", obs.L("code", "421")),
		errs429:     reg.Counter("igepa_router_http_errors_total", "Router-observed error responses by status code.", obs.L("code", "429")),
		renewAborts: reg.Counter("igepa_router_renew_aborts_total", "Renewal rounds aborted before any install (safe, retried)."),
		renewRounds: reg.Counter("igepa_router_renew_rounds_total", "Completed cluster lease-renewal rounds."),
		movedSeats:  reg.Counter("igepa_router_moved_seats_total", "Seats that changed shard owner across renewals."),
		epochs:      reg.Counter("igepa_router_epochs_total", "Replay batches dispatched."),
		renewDur: reg.Histogram("igepa_router_renew_seconds",
			"End-to-end two-phase renewal round duration.", obs.LatencyBuckets()),
		migratedUsers: reg.Counter("igepa_router_migrated_users_total", "Users moved between backends."),
		migratedSeats: reg.Counter("igepa_router_migrated_seats_total", "Seats moved between backends."),
		scrapeErrors: reg.Counter("igepa_router_scrape_errors_total",
			"Backend /metrics scrapes that failed during /cluster/metrics fan-in."),
	}
	o.migratePhases = make(map[string]*obs.Counter)
	for _, ph := range []string{"drain", "export", "adopt", "commit"} {
		o.migratePhases[ph] = reg.Counter("igepa_router_migration_phases_total",
			"Migration phases completed.", obs.L("phase", ph))
	}
	for si := 0; si < rt.s; si++ {
		l := obs.L("shard", strconv.Itoa(si))
		o.beReqs = append(o.beReqs, reg.Counter("igepa_router_backend_requests_total",
			"Backend round trips (one envelope or one admin call) that produced an HTTP response.", l))
		o.beErrs = append(o.beErrs, reg.Counter("igepa_router_backend_errors_total",
			"Backend round trips that failed in transport or answered 5xx.", l))
		o.beOps = append(o.beOps, reg.Counter("igepa_router_backend_ops_total",
			"/v1 ops carried to the backend in envelopes; over igepa_router_backend_requests_total it reads as the coalescing factor.", l))
		o.beLat = append(o.beLat, reg.Histogram("igepa_router_backend_seconds",
			"Backend round-trip latency (one envelope or one admin call).", obs.LatencyBuckets(), l))
	}
	reg.GaugeFunc("igepa_router_degraded", "1 once the fail-stop latch has tripped.", func() float64 {
		if rt.degraded.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("igepa_router_queue_depth", "Requests waiting in the replay queue.", func() float64 {
		if rt.q == nil {
			return 0
		}
		return float64(rt.q.Depth())
	})
	reg.GaugeFunc("igepa_router_up_seconds", "Process uptime.", func() float64 {
		return time.Since(rt.started).Seconds()
	})
	return o
}

// observeBackend is the proxy hot path: one histogram observation and a
// counter bump per round trip. d == 0 means no response arrived (transport
// failure); failed additionally counts transport errors and 5xx answers.
// Allocation-free.
func (o *routerObs) observeBackend(si int, d time.Duration, failed bool) {
	if d > 0 {
		o.beReqs[si].Inc()
		o.beLat[si].ObserveDuration(d)
	}
	if failed {
		o.beErrs[si].Inc()
	}
}

// mirrorCoord stores the coordinator-owned cumulative counters; the caller
// holds renewMu (renewal rounds and migrations both do).
func (o *routerObs) mirrorCoord(renewals, moved int) {
	o.renewRounds.Store(int64(renewals))
	o.movedSeats.Store(int64(moved))
}

// handleClusterMetrics is GET /cluster/metrics: scrape every backend's
// /metrics in parallel, parse each exposition, and re-export the merged
// families with a shard label — the single scrape target for the whole
// deployment. A backend that fails to answer is skipped (and counted in
// igepa_router_scrape_errors_total); the live ones still export.
func (rt *Router) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	sources := make([]*obs.RelabeledSource, rt.s)
	var wg sync.WaitGroup
	for si := 0; si < rt.s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fams, err := rt.scrapeBackend(si)
			if err != nil {
				rt.obs.scrapeErrors.Inc()
				return
			}
			sources[si] = &obs.RelabeledSource{Value: strconv.Itoa(si), Families: fams}
		}(si)
	}
	wg.Wait()
	var live []obs.RelabeledSource
	for _, s := range sources {
		if s != nil {
			live = append(live, *s)
		}
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.MergeRelabeled(w, "shard", live); err != nil {
		// headers are gone; nothing more to do than stop writing
		return
	}
}

// scrapeBackend fetches and parses one backend's /metrics exposition.
func (rt *Router) scrapeBackend(si int) ([]obs.Family, error) {
	b := &rt.backends[si]
	res, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, res.Body)
		return nil, fmt.Errorf("backend %d /metrics: HTTP %d", si, res.StatusCode)
	}
	return obs.ParseFamilies(res.Body)
}
