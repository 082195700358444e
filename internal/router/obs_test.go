package router

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/shard"
)

// rawScrape drives a GET through the router handler and returns the parsed,
// lint-clean exposition keyed by family name.
func rawScrape(t *testing.T, cl *cluster, path string) map[string]obs.Family {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	cl.rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d", path, rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("GET %s content type %q, want %q", path, ct, obs.ContentType)
	}
	if problems := obs.LintExposition(bytes.NewReader(rec.Body.Bytes())); len(problems) > 0 {
		t.Fatalf("GET %s lint: %v", path, problems)
	}
	fams, err := obs.ParseFamilies(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// sampleValue finds one sample by name and label constraints.
func sampleValue(fams map[string]obs.Family, family, sample string, labels map[string]string) (float64, bool) {
	f, present := fams[family]
	if !present {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != sample {
			continue
		}
		match := true
		for k, want := range labels {
			if s.Label(k) != want {
				match = false
				break
			}
		}
		if match {
			v, err := s.Float()
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

func mustSample(t *testing.T, fams map[string]obs.Family, family, sample string, labels map[string]string) float64 {
	t.Helper()
	v, ok := sampleValue(fams, family, sample, labels)
	if !ok {
		t.Fatalf("metric %s (sample %s, labels %v) missing", family, sample, labels)
	}
	return v
}

// driveRouterTraffic pushes a small deterministic load through the live
// router: bids for every user, cancels for a few.
func driveRouterTraffic(t *testing.T, cl *cluster, nu int) {
	t.Helper()
	for u := 0; u < nu; u++ {
		if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u}, nil); code != http.StatusOK {
			t.Fatalf("bid %d: %d", u, code)
		}
	}
	for u := 0; u < nu; u += 7 {
		cl.call(t, "POST", "/v1/cancel", cancelRequest{User: u}, nil)
	}
}

// TestRouterMetricsExposition pins the router's own /metrics: valid
// exposition, the proxied-traffic counters agreeing with /statsz, and a
// populated per-backend request/latency series for every shard.
func TestRouterMetricsExposition(t *testing.T) {
	in := testInstance(t, 21, 80, 12)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: 7}, Config{})
	driveRouterTraffic(t, cl, 80)

	// The last bids may have triggered a renewal round that is still in
	// flight: the coordinator's counter advances inside it, the mirrored
	// metric only when it finishes. Holding renewMu, as a round does, makes
	// the scrape and the coordinator read see one state.
	var fams map[string]obs.Family
	var renewals int
	func() {
		cl.rt.renewMu.Lock()
		defer cl.rt.renewMu.Unlock()
		fams = rawScrape(t, cl, "/metrics")
		renewals = cl.rt.coord.Renewals()
	}()
	st := cl.rt.Stats()
	if v := mustSample(t, fams, "igepa_router_arrivals_total", "igepa_router_arrivals_total", nil); v != float64(st.Arrivals) {
		t.Errorf("igepa_router_arrivals_total = %v, want %d (statsz)", v, st.Arrivals)
	}
	if v := mustSample(t, fams, "igepa_router_cancels_total", "igepa_router_cancels_total", nil); v != float64(st.Cancels) {
		t.Errorf("igepa_router_cancels_total = %v, want %d (statsz)", v, st.Cancels)
	}
	if st.Arrivals == 0 {
		t.Fatal("no traffic accounted")
	}

	// Both backends served requests; every round trip left a latency sample.
	for _, sh := range []string{"0", "1"} {
		reqs := mustSample(t, fams, "igepa_router_backend_requests_total", "igepa_router_backend_requests_total", map[string]string{"shard": sh})
		if reqs == 0 {
			t.Errorf("backend %s never counted a request", sh)
		}
		lat := mustSample(t, fams, "igepa_router_backend_seconds", "igepa_router_backend_seconds_count", map[string]string{"shard": sh})
		if lat != reqs {
			t.Errorf("backend %s latency count %v != request count %v", sh, lat, reqs)
		}
	}

	// The cluster renewed at least once under this load, and the mirrored
	// counter matches the coordinator.
	rounds := mustSample(t, fams, "igepa_router_renew_rounds_total", "igepa_router_renew_rounds_total", nil)
	if rounds < 1 {
		t.Errorf("igepa_router_renew_rounds_total = %v, want >= 1", rounds)
	}
	if got := float64(renewals); rounds != got {
		t.Errorf("renew rounds metric %v != coordinator %v", rounds, got)
	}
	if n := mustSample(t, fams, "igepa_router_renew_seconds", "igepa_router_renew_seconds_count", nil); n != rounds {
		t.Errorf("renew duration count %v != rounds %v", n, rounds)
	}
	if v := mustSample(t, fams, "igepa_router_degraded", "igepa_router_degraded", nil); v != 0 {
		t.Errorf("igepa_router_degraded = %v on a healthy cluster", v)
	}

}

// TestClusterMetricsFanIn pins the deployment-wide scrape target: the
// router's /cluster/metrics re-exports every live backend's registry with a
// shard label, stays lint-clean after the merge, agrees with the backends'
// own counters, and keeps serving the survivors when a backend dies.
func TestClusterMetricsFanIn(t *testing.T) {
	in := testInstance(t, 33, 80, 12)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: 7}, Config{})
	driveRouterTraffic(t, cl, 80)

	fams := rawScrape(t, cl, "/cluster/metrics")
	var fanned int64
	for si, be := range cl.backends {
		sh := map[string]string{"shard": []string{"0", "1"}[si]}
		arr := mustSample(t, fams, "igepa_arrivals_total", "igepa_arrivals_total", sh)
		if want := float64(be.Stats().Arrivals); arr != want {
			t.Errorf("shard %d fanned-in arrivals = %v, want %v", si, arr, want)
		}
		fanned += int64(mustSample(t, fams, "igepa_decided_total", "igepa_decided_total", sh))
		// Histograms survive the merge with their shard label intact.
		mustSample(t, fams, "igepa_total_seconds", "igepa_total_seconds_count", sh)
		mustSample(t, fams, "igepa_queue_occupancy", "igepa_queue_occupancy", sh)
	}
	var total int64
	for _, be := range cl.backends {
		total += be.Stats().Decided
	}
	if fanned != total {
		t.Errorf("fanned-in decided sum = %d, want %d", fanned, total)
	}

	// Kill backend 1: the fan-in keeps exporting shard 0 and counts the
	// failed scrape instead of erroring the whole endpoint.
	cl.ts[1].Close()
	fams = rawScrape(t, cl, "/cluster/metrics")
	mustSample(t, fams, "igepa_arrivals_total", "igepa_arrivals_total", map[string]string{"shard": "0"})
	if _, ok := sampleValue(fams, "igepa_arrivals_total", "igepa_arrivals_total", map[string]string{"shard": "1"}); ok {
		t.Error("dead backend still present in the fan-in")
	}
	own := rawScrape(t, cl, "/metrics")
	if v := mustSample(t, own, "igepa_router_scrape_errors_total", "igepa_router_scrape_errors_total", nil); v < 1 {
		t.Errorf("igepa_router_scrape_errors_total = %v after a dead-backend scrape, want >= 1", v)
	}
}

// TestRouterBadRequestsCounted pins that every 400 the router answers
// itself is counted once, on /statsz and on /metrics alike: a body that
// fails to read, a malformed body and a malformed migration.
func TestRouterBadRequestsCounted(t *testing.T) {
	cl := startCluster(t, testInstance(t, 5, 40, 8), 2, shard.Options{Batch: 16, Seed: 7}, Config{})
	unreadable := func() io.Reader { return iotest.ErrReader(errors.New("connection reset")) }
	malformed := func() io.Reader { return strings.NewReader("{") }
	for i, tc := range []struct {
		path string
		body func() io.Reader
	}{
		{"/v1/bid", unreadable},
		{"/v1/cancel", unreadable},
		{"/v1/bid", malformed},
		{"/v1/cancel", malformed},
		{"/admin/migrate", malformed},
	} {
		rec := httptest.NewRecorder()
		cl.rt.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, tc.body()))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d POST %s: %d, want 400", i, tc.path, rec.Code)
		}
		if got := cl.rt.Stats().BadRequests; got != int64(i+1) {
			t.Fatalf("case %d POST %s: bad_request_400 = %d, want %d", i, tc.path, got, i+1)
		}
	}
	fams := rawScrape(t, cl, "/metrics")
	if v := mustSample(t, fams, "igepa_router_http_errors_total", "igepa_router_http_errors_total", map[string]string{"code": "400"}); v != 5 {
		t.Errorf("igepa_router_http_errors_total{code=400} = %v, want 5", v)
	}
}

// TestRouterMetricsDisabled pins the off switch: no /metrics, no
// /cluster/metrics, everything else unaffected.
func TestRouterMetricsDisabled(t *testing.T) {
	in := testInstance(t, 5, 40, 8)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: 7}, Config{DisableMetrics: true})
	if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: 3}, nil); code != http.StatusOK {
		t.Fatalf("bid: %d", code)
	}
	for _, path := range []string{"/metrics", "/cluster/metrics"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		cl.rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s with DisableMetrics: %d, want 404", path, rec.Code)
		}
	}
}

// TestRouterMigrationMetrics pins the migration phase counters: one
// completed migration counts all four phases once and records the moved
// range's size.
func TestRouterMigrationMetrics(t *testing.T) {
	in := testInstance(t, 11, 60, 10)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: 3}, Config{})
	driveRouterTraffic(t, cl, 60)

	// Move every shard-0 user to shard 1.
	var movers []int
	for u := 0; u < in.NumUsers(); u++ {
		if cl.rt.ownerOf(u) == 0 {
			movers = append(movers, u)
		}
	}
	if len(movers) == 0 {
		t.Fatal("no users on shard 0")
	}
	var res struct {
		Migrated int `json:"migrated"`
		Seats    int `json:"seats_moved"`
	}
	if code := cl.call(t, "POST", "/admin/migrate", MigrateRequest{From: 0, To: 1, Users: movers}, &res); code != http.StatusOK {
		t.Fatalf("migrate: %d", code)
	}

	fams := rawScrape(t, cl, "/metrics")
	for _, ph := range []string{"drain", "export", "adopt", "commit"} {
		if v := mustSample(t, fams, "igepa_router_migration_phases_total", "igepa_router_migration_phases_total", map[string]string{"phase": ph}); v != 1 {
			t.Errorf("phase %s counted %v times, want 1", ph, v)
		}
	}
	if v := mustSample(t, fams, "igepa_router_migrated_users_total", "igepa_router_migrated_users_total", nil); v != float64(res.Migrated) {
		t.Errorf("igepa_router_migrated_users_total = %v, want %d", v, res.Migrated)
	}
	if v := mustSample(t, fams, "igepa_router_migrated_seats_total", "igepa_router_migrated_seats_total", nil); v != float64(res.Seats) {
		t.Errorf("igepa_router_migrated_seats_total = %v, want %d", v, res.Seats)
	}
}

// TestMethodNotAllowedNamesAllow pins that a 405 from either tier carries
// the Allow header HTTP requires on one: every route is registered with its
// method, and the mux answers the others. The shard tier is reached over
// real HTTP, the router through its handler.
func TestMethodNotAllowedNamesAllow(t *testing.T) {
	cl := startCluster(t, testInstance(t, 5, 40, 8), 2, shard.Options{Batch: 16, Seed: 7}, Config{})
	for _, tc := range []struct {
		tier, method, path, allow string
	}{
		{"shard", "GET", "/v1/bid", "POST"},
		{"shard", "POST", "/metrics", "GET, HEAD"},
		{"shard", "POST", "/v1/assignment", "GET, HEAD"},
		{"shard", "GET", "/cluster/ops", "POST"},
		{"router", "GET", "/v1/bid", "POST"},
		{"router", "POST", "/metrics", "GET, HEAD"},
		{"router", "POST", "/cluster/metrics", "GET, HEAD"},
		{"router", "GET", "/admin/migrate", "POST"},
	} {
		var code int
		var allow string
		if tc.tier == "shard" {
			req, err := http.NewRequest(tc.method, cl.urls[0]+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			code, allow = resp.StatusCode, resp.Header.Get("Allow")
		} else {
			rec := httptest.NewRecorder()
			cl.rt.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			code, allow = rec.Code, rec.Header().Get("Allow")
		}
		if code != http.StatusMethodNotAllowed || allow != tc.allow {
			t.Errorf("%s %s %s: %d with Allow %q, want 405 with Allow %q", tc.tier, tc.method, tc.path, code, allow, tc.allow)
		}
	}
}
