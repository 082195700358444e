package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// scrapeMetrics fetches /metrics, fails the test on any lint finding, and
// returns the families keyed by name.
func scrapeMetrics(t testing.TB, c *client) map[string]obs.Family {
	t.Helper()
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintExposition(bytes.NewReader(raw)); len(problems) > 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	fams, err := obs.ParseFamilies(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// metricValue finds one sample by its full name (family name, or name_count
// etc. for histograms) and label constraints; ok is false when absent.
func metricValue(fams map[string]obs.Family, family, sample string, labels map[string]string) (float64, bool) {
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

func requireMetric(t *testing.T, fams map[string]obs.Family, family, sample string, labels map[string]string) float64 {
	t.Helper()
	v, ok := metricValue(fams, family, sample, labels)
	if !ok {
		t.Fatalf("metric %s (sample %s, labels %v) missing from exposition", family, sample, labels)
	}
	return v
}

// TestMetricsExposition drives real traffic through a live, a replay and a
// cluster-batch server and pins the /metrics surface of each: valid
// lintable exposition, every /statsz counter equal to the /metrics series
// it is read from, and the decision histogram counting exactly the decided
// arrivals. The live server also runs the live bound and a WAL, whose
// instrumentation its own check pins.
func TestMetricsExposition(t *testing.T) {
	in := testInstance(t, 41, 66, 10)
	modes := []struct {
		name   string
		epochs string // the family /statsz's epochs counter is read from
		start  func(t *testing.T) (*Server, *client)
		check  func(t *testing.T, fams map[string]obs.Family, st Stats)
	}{
		{
			name: "live", epochs: "igepa_batches_total",
			start: func(t *testing.T) (*Server, *client) {
				srv, _, c := startServer(t, in.Clone(), Config{
					Shard: shard.Options{
						Shards: 2, Batch: 8, Seed: 7, LiveBound: true,
					},
					WALPath: filepath.Join(t.TempDir(), "wal.log"),
					WALSync: wal.SyncAlways,
				})
				driveTraffic(t, c, 66, 10, false)
				return srv, c
			},
			check: checkLiveMetrics,
		},
		{
			name: "replay", epochs: "igepa_epochs_total",
			start: func(t *testing.T) (*Server, *client) {
				srv, _, c := startServer(t, in.Clone(), Config{
					Shard:  shard.Options{Shards: 2, Batch: 8, Seed: 7},
					Replay: true,
				})
				driveTraffic(t, c, 66, 10, true)
				return srv, c
			},
		},
		{
			// One shard of a replay cluster, driven as the router drives it:
			// ordered /cluster/batch sub-batches, then one wire renewal.
			name: "cluster-batch", epochs: "igepa_batches_total",
			start: func(t *testing.T) (*Server, *client) {
				const seed = 7
				srv, c := startClusterShard(t, in.Clone(), 2, 0, Config{Shard: shard.Options{Seed: seed, Batch: 8}})
				owned, foreign := pickUsers(in, seed, 2, 0, 12)
				for i := 0; i < len(owned); i += 4 {
					if code := c.status("POST", "/cluster/batch", ClusterBatchRequest{Users: owned[i : i+4]}); code != http.StatusOK {
						t.Fatalf("cluster batch %d: %d", i/4, code)
					}
				}
				if code := c.status("POST", "/cluster/batch", ClusterBatchRequest{Users: owned[:1]}); code != http.StatusConflict {
					t.Fatalf("replayed batch: %d, want 409", code)
				}
				if code := c.status("POST", "/cluster/batch", ClusterBatchRequest{Users: foreign[:1]}); code != http.StatusMisdirectedRequest {
					t.Fatalf("foreign batch: %d, want 421", code)
				}
				var d ClusterDemandResponse
				if code := c.do("POST", "/cluster/demand", struct{}{}, &d).StatusCode; code != http.StatusOK {
					t.Fatalf("demand: %d", code)
				}
				if code := c.status("POST", "/cluster/lease", ClusterLeaseRequest{Budget: d.Loads}); code != http.StatusOK {
					t.Fatalf("lease: %d", code)
				}
				return srv, c
			},
			check: func(t *testing.T, fams map[string]obs.Family, st Stats) {
				// Each sub-batch is one engine epoch, mirrored as it lands.
				if got := requireMetric(t, fams, "igepa_epochs_total", "igepa_epochs_total", nil); got != float64(st.Epochs) {
					t.Errorf("igepa_epochs_total = %v, want %d", got, st.Epochs)
				}
			},
		},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			srv, c := m.start(t)
			if code, _ := c.rawDo("POST", "/v1/bid", []byte("{")); code != http.StatusBadRequest {
				t.Fatalf("malformed bid: %d, want 400", code)
			}
			if !srv.Drain(10 * time.Second) {
				t.Fatal("drain timed out")
			}
			fams := scrapeMetrics(t, c)
			st := srv.Stats()
			if st.Decided == 0 {
				t.Fatalf("test drove no real work: %+v", st)
			}

			code := func(c string) map[string]string { return map[string]string{"code": c} }
			mirrored := []struct {
				name   string
				labels map[string]string
				want   int64
			}{
				{"igepa_arrivals_total", nil, st.Arrivals},
				{"igepa_decided_total", nil, st.Decided},
				{"igepa_granted_total", nil, st.Granted},
				{"igepa_cancels_total", nil, st.Cancels},
				{"igepa_http_errors_total", code("400"), st.BadRequests},
				{"igepa_http_errors_total", code("409"), st.Conflicts},
				{"igepa_http_errors_total", code("421"), st.Misrouted},
				{"igepa_http_errors_total", code("429"), st.Rejected},
				{"igepa_lease_errors_total", nil, st.LeaseErrors},
				{"igepa_lease_renewals_total", nil, int64(st.LeaseRenewals)},
				{"igepa_moved_seats_total", nil, int64(st.MovedSeats)},
				{m.epochs, nil, int64(st.Epochs)},
			}
			for _, mc := range mirrored {
				if got := requireMetric(t, fams, mc.name, mc.name, mc.labels); got != float64(mc.want) {
					t.Errorf("%s%v = %v, want %d (statsz)", mc.name, mc.labels, got, mc.want)
				}
			}
			if st.BadRequests != 1 {
				t.Errorf("bad_request_400 = %d, want 1", st.BadRequests)
			}

			// Every decided arrival reached the decision histogram.
			if got := requireMetric(t, fams, "igepa_decision_seconds", "igepa_decision_seconds_count", nil); got != float64(st.Decided) {
				t.Errorf("igepa_decision_seconds count = %v, want %d", got, st.Decided)
			}
			if m.check != nil {
				m.check(t, fams, st)
			}

			// Method discipline.
			if code := c.status("POST", "/metrics", nil); code != http.StatusMethodNotAllowed {
				t.Fatalf("POST /metrics: %d, want 405", code)
			}
		})
	}
}

// checkLiveMetrics pins the live server's histogram, queue, WAL and LP
// instrumentation.
func checkLiveMetrics(t *testing.T, fams map[string]obs.Family, st Stats) {
	if st.LeaseRenewals == 0 {
		t.Fatalf("live traffic renewed no leases: %+v", st)
	}
	if got := requireMetric(t, fams, "igepa_total_seconds", "igepa_total_seconds_count", nil); got != float64(st.Decided) {
		t.Errorf("igepa_total_seconds count = %v, want %d", got, st.Decided)
	}

	// Per-shard queue gauges exist for both shards; the configured limit is
	// exported.
	for _, sh := range []string{"0", "1"} {
		requireMetric(t, fams, "igepa_queue_depth", "igepa_queue_depth", map[string]string{"shard": sh})
	}
	if got := requireMetric(t, fams, "igepa_queue_limit", "igepa_queue_limit", nil); got != float64(st.QueueLimit) {
		t.Errorf("igepa_queue_limit = %v, want %d", got, st.QueueLimit)
	}

	// WAL instrumentation: appends counted, every append fsynced under
	// SyncAlways, fsync latency histogram populated.
	appends := requireMetric(t, fams, "igepa_wal_appends_total", "igepa_wal_appends_total", nil)
	if appends == 0 {
		t.Error("igepa_wal_appends_total = 0 with a WAL attached")
	}
	// Group commit fsyncs once per micro-batch, so syncs <= appends — but
	// under SyncAlways every commit syncs, so the count must be nonzero.
	if syncs := requireMetric(t, fams, "igepa_wal_syncs_total", "igepa_wal_syncs_total", nil); syncs == 0 || syncs > appends {
		t.Errorf("igepa_wal_syncs_total = %v (appends %v) under SyncAlways", syncs, appends)
	}
	if n := requireMetric(t, fams, "igepa_wal_fsync_seconds", "igepa_wal_fsync_seconds_count", nil); n == 0 {
		t.Error("igepa_wal_fsync_seconds histogram is empty under SyncAlways")
	}
	if n := requireMetric(t, fams, "igepa_wal_commit_seconds", "igepa_wal_commit_seconds_count", nil); n != float64(st.Decided) {
		t.Errorf("igepa_wal_commit_seconds count = %v, want %d", n, st.Decided)
	}

	// LP solver counters, mirrored at renewal rounds: the live bound's
	// solver must have cold-solved at least once and re-solved since.
	if v := requireMetric(t, fams, "igepa_lp_cold_solves_total", "igepa_lp_cold_solves_total", map[string]string{"solver": "bound"}); v == 0 {
		t.Error("bound LP never cold-solved with LiveBound on")
	}
	requireMetric(t, fams, "igepa_lp_phase_ns_total", "igepa_lp_phase_ns_total", map[string]string{"solver": "bound", "phase": "pricing"})
	requireMetric(t, fams, "igepa_lp_phase_ns_total", "igepa_lp_phase_ns_total", map[string]string{"solver": "bound", "phase": "sync"})
	if v := requireMetric(t, fams, "igepa_lp_bound_updates_total", "igepa_lp_bound_updates_total", nil); v == 0 {
		t.Error("live bound never updated with LiveBound on")
	}
	requireMetric(t, fams, "igepa_lp_bound_remaining", "igepa_lp_bound_remaining", nil)
}

// TestClusterBadRequestsCounted pins that every 400 the cluster protocol
// answers is counted once: a malformed body on each /cluster endpoint, and
// a well-formed adopt whose arrays disagree in length.
func TestClusterBadRequestsCounted(t *testing.T) {
	srv, c := startClusterShard(t, testInstance(t, 3, 20, 6), 2, 0, Config{Shard: shard.Options{Seed: 1, Batch: 8}})
	for i, tc := range []struct{ path, body string }{
		{"/cluster/lease", "{"},
		{"/cluster/batch", "{"},
		{"/cluster/ops", "{"},
		{"/cluster/export", "{"},
		{"/cluster/adopt", "{"},
		{"/cluster/adopt", `{"users":[1],"sets":[]}`},
	} {
		if code, _ := c.rawDo("POST", tc.path, []byte(tc.body)); code != http.StatusBadRequest {
			t.Fatalf("POST %s %q: %d, want 400", tc.path, tc.body, code)
		}
		if got := srv.Stats().BadRequests; got != int64(i+1) {
			t.Fatalf("after POST %s %q: bad_request_400 = %d, want %d", tc.path, tc.body, got, i+1)
		}
	}
}

// TestStatszPercentilesFromHistograms pins /statsz's latency view: each
// p50/p99 is the bucket bound Histogram.Quantile reads off the histogram
// /metrics exports, in microseconds.
func TestStatszPercentilesFromHistograms(t *testing.T) {
	srv, _, c := startServer(t, testInstance(t, 41, 66, 10), Config{
		Shard:   shard.Options{Shards: 2, Batch: 8, Seed: 7},
		WALPath: filepath.Join(t.TempDir(), "wal.log"),
	})
	driveTraffic(t, c, 66, 10, false)
	if !srv.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := srv.Stats()
	for _, tc := range []struct {
		name string
		h    *obs.Histogram
		got  Percentiles
	}{
		{"queue_wait", srv.obs.queueWait, st.QueueWait},
		{"decision", srv.obs.decide, st.Decision},
		{"total", srv.obs.total, st.Total},
		{"wal.append", srv.obs.walCommit, st.WAL.Append},
	} {
		want := Percentiles{
			P50Micros: int64(math.Round(tc.h.Quantile(0.50) * 1e6)),
			P99Micros: int64(math.Round(tc.h.Quantile(0.99) * 1e6)),
		}
		if tc.got != want || want.P99Micros == 0 || want.P50Micros > want.P99Micros {
			t.Errorf("%s = %+v, want %+v from the histogram", tc.name, tc.got, want)
		}
		// A factor-2 bucket bound in µs is a power of two.
		if p := tc.got.P99Micros; p&(p-1) != 0 {
			t.Errorf("%s p99 %dµs is not a bucket bound", tc.name, p)
		}
	}
}

// TestMetricsDisabled pins the benchmark baseline: Config.DisableMetrics
// removes the endpoint entirely.
func TestMetricsDisabled(t *testing.T) {
	_, _, c := startServer(t, testInstance(t, 3, 20, 6), Config{
		Shard:          shard.Options{Shards: 2, Batch: 8, Seed: 1},
		DisableMetrics: true,
	})
	if code := c.status("GET", "/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("GET /metrics with DisableMetrics: %d, want 404", code)
	}
	if code := c.status("GET", "/statsz", nil); code != http.StatusOK {
		t.Fatalf("statsz must survive DisableMetrics: %d", code)
	}
}

// syncBuffer lets the test read slowlog output written from serving
// goroutines without racing the writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReplayBitIdenticalWithSlowlog is the no-perturbation acceptance pin:
// a replay server with metrics on and a 1ns slowlog threshold (every
// arrival traced) produces decisions bit-identical to a replay server with
// all instrumentation off.
func TestReplayBitIdenticalWithSlowlog(t *testing.T) {
	opts := shard.Options{Shards: 4, Batch: 16, Seed: 7, LiveBound: true}
	base := testInstance(t, 23, 66, 10)
	var slow syncBuffer

	instrumented, _, ic := startServer(t, base.Clone(), Config{
		Shard: opts, Replay: true,
		SlowLog: time.Nanosecond, slowLogOutput: &slow,
	})
	plain, _, pc := startServer(t, base.Clone(), Config{
		Shard: opts, Replay: true, DisableMetrics: true,
	})

	driveTraffic(t, ic, 66, 10, true)
	driveTraffic(t, pc, 66, 10, true)

	var ia, pa struct {
		Sets [][]int `json:"sets"`
	}
	ic.do("GET", "/v1/assignment", nil, &ia)
	pc.do("GET", "/v1/assignment", nil, &pa)
	if !reflect.DeepEqual(ia.Sets, pa.Sets) {
		t.Fatal("instrumented replay decided differently from the uninstrumented replay")
	}
	ist, pst := instrumented.Stats(), plain.Stats()
	if ist.Epochs != pst.Epochs || ist.LeaseRenewals != pst.LeaseRenewals || ist.Decided != pst.Decided {
		t.Fatalf("replay progress diverged: instrumented %d/%d/%d vs plain %d/%d/%d (epochs/renewals/decided)",
			ist.Epochs, ist.LeaseRenewals, ist.Decided, pst.Epochs, pst.LeaseRenewals, pst.Decided)
	}

	// Every decided arrival crossed the 1ns threshold and left a trace line.
	if got := instrumented.slow.Count(); got != ist.Decided {
		t.Fatalf("slowlog counted %d arrivals, want %d", got, ist.Decided)
	}
	out := slow.String()
	if !strings.Contains(out, "slowlog op=bid") || !strings.Contains(out, " wait=") || !strings.Contains(out, " wal=") {
		t.Fatalf("slowlog lines missing expected spans:\n%s", out)
	}
	fams := scrapeMetrics(t, ic)
	if v := requireMetric(t, fams, "igepa_slow_arrivals_total", "igepa_slow_arrivals_total", nil); v != float64(ist.Decided) {
		t.Fatalf("igepa_slow_arrivals_total = %v, want %d", v, ist.Decided)
	}
}

// TestArrivalPathAllocs pins the hot-path instrumentation contract from
// DESIGN.md §12: the per-arrival record — three registry histograms, the
// WAL-commit histogram, the decided/granted counters and the slowlog
// threshold gate — allocates nothing.
func TestArrivalPathAllocs(t *testing.T) {
	o := newServerObs(&Server{qlimit: 8})
	slow := obs.NewSlowLog(time.Hour, io.Discard)
	allocs := testing.AllocsPerRun(2000, func() {
		o.decided.Inc()
		o.granted.Inc()
		o.observeDecision(5*time.Microsecond, 7*time.Microsecond, 12*time.Microsecond)
		o.walCommit.ObserveDuration(3 * time.Microsecond)
		if slow.Slow(10 * time.Microsecond) {
			t.Fatal("below-threshold arrival reported slow")
		}
	})
	if allocs != 0 {
		t.Fatalf("arrival-path record allocates %.1f objects per arrival, want 0", allocs)
	}
}

// TestStatszLPReport pins the live-bound planner's solver counters and
// phase timers on /statsz.
func TestStatszLPReport(t *testing.T) {
	in := testInstance(t, 13, 66, 10)
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{
			Shards: 2, Batch: 8, Seed: 3, LiveBound: true,
		},
	})
	driveTraffic(t, c, 66, 10, false)
	if !srv.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := srv.Stats()
	if st.LP == nil {
		t.Fatal("statsz LP report missing with LiveBound on")
	}
	if st.LP.Bound.ColdSolves == 0 {
		t.Fatalf("bound solver report shows no solves: %+v", st.LP.Bound)
	}
	if st.LP.Bound.PricingNS == 0 && st.LP.Bound.FactorNS == 0 {
		t.Fatalf("bound phase timers all zero: %+v", st.LP.Bound)
	}

	// The same counters appear on /statsz's JSON wire form.
	var raw map[string]any
	c.do("GET", "/statsz", nil, &raw)
	if _, ok := raw["lp"]; !ok {
		t.Fatal("statsz JSON has no lp key")
	}
}

// TestFollowerLagBoundaryMetrics is the satellite-4 pin: /readyz flips
// 200↔503 exactly at the -lag-bytes boundary, and the
// igepa_replication_lag_bytes gauge agrees with the readiness verdict at
// every step. Also pins the 503 write-rejection counter on the follower.
func TestFollowerLagBoundaryMetrics(t *testing.T) {
	srv, _, c := startServer(t, testInstance(t, 29, 20, 6), Config{
		Shard:    shard.Options{Shards: 2, Batch: 8, Seed: 1},
		WALPath:  filepath.Join(t.TempDir(), "absent.log"),
		Follow:   true,
		LagBytes: 128,
	})
	// No log yet: not ready, gauge 0.
	if code := c.status("GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no log: %d, want 503", code)
	}
	fams := scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("igepa_replication_ready = %v before the log exists, want 0", v)
	}

	// A write on the follower bounces 503 and is counted.
	if code := c.status("POST", "/v1/bid", bidRequest{User: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("follower bid: %d, want 503", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_http_errors_total", "igepa_http_errors_total", map[string]string{"code": "503"}); v < 1 {
		t.Fatalf("igepa_http_errors_total{code=503} = %v after a rejected write", v)
	}

	// White-box lag arithmetic (loop stopped, fields ours — the same
	// protocol TestFollowerReadiness uses): one byte over the bound.
	f := srv.fol
	f.stopLoop()
	f.mu.Lock()
	f.applied, f.size = 1000, 1000+srv.lagBound()+1
	f.mu.Unlock()
	var rr readyResponse
	if code := c.do("GET", "/readyz", nil, &rr).StatusCode; code != http.StatusServiceUnavailable {
		t.Fatalf("readyz over the bound: %d, want 503", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v != float64(srv.lagBound()+1) {
		t.Fatalf("lag gauge = %v, want %d", v, srv.lagBound()+1)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("ready gauge = %v over the bound, want 0", v)
	}

	// Exactly at the bound: ready, and the gauge agrees again.
	f.mu.Lock()
	f.size = 1000 + srv.lagBound()
	f.mu.Unlock()
	if code := c.status("GET", "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz at the bound: %d, want 200", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v != float64(srv.lagBound()) {
		t.Fatalf("lag gauge = %v at the bound, want %d", v, srv.lagBound())
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 1 {
		t.Fatalf("ready gauge = %v at the bound, want 1", v)
	}
}

// TestFollowerCatchupMetrics pins the replication counters on the real
// tailing path: records applied, the not-ready→ready transition counted,
// and the lag gauge within the bound once caught up.
func TestFollowerCatchupMetrics(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	opts := shard.Options{Shards: 4, Batch: 16, Seed: 7}
	base := testInstance(t, 23, 66, 10)

	leader, _, lc := startServer(t, base.Clone(), Config{
		Shard: opts, WALPath: walPath, WALSync: wal.SyncOff,
	})
	follower, _, fc := startServer(t, base.Clone(), Config{
		Shard: opts, WALPath: walPath, Follow: true,
	})
	driveTraffic(t, lc, 66, 10, false)
	if !leader.Drain(10 * time.Second) {
		t.Fatal("leader drain timed out")
	}
	appends := leader.walWriter().Stats().Appends
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		return follower.fol.stats().Records == appends
	})

	fams := scrapeMetrics(t, fc)
	if v := requireMetric(t, fams, "igepa_replica_records_total", "igepa_replica_records_total", nil); v != float64(appends) {
		t.Fatalf("igepa_replica_records_total = %v, want %d", v, appends)
	}
	if v := requireMetric(t, fams, "igepa_readiness_flips_total", "igepa_readiness_flips_total", nil); v < 1 {
		t.Fatalf("igepa_readiness_flips_total = %v after catch-up, want >= 1", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 1 {
		t.Fatalf("caught-up follower ready gauge = %v, want 1", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v > float64(follower.lagBound()) {
		t.Fatalf("caught-up lag gauge = %v, want <= %d", v, follower.lagBound())
	}
}

// TestFollowerHaltMetrics pins the permanent-halt-on-corruption face of
// satellite 4: a corrupt frame parks the replica not ready forever, and the
// metrics surface says so — ready gauge 0, records stopped before the bad
// frame.
func TestFollowerHaltMetrics(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	fd, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(fd, 0, wal.Options{Sync: wal.SyncOff})
	var ends []int64
	for u := 0; u < 3; u++ {
		off, err := w.Append(wal.Op{Kind: wal.OpBid, TMillis: 1, User: u})
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[ends[0]+8] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, _, c := startServer(t, testInstance(t, 31, 20, 6), Config{
		Shard:   shard.Options{Shards: 2, Batch: 8, Seed: 1},
		WALPath: walPath,
		Follow:  true,
	})
	waitFor(t, 10*time.Second, "follower halt", func() bool {
		return srv.fol.stats().Failure != ""
	})
	if code := c.status("GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("halted follower readyz: %d, want 503", code)
	}
	fams := scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replica_records_total", "igepa_replica_records_total", nil); v != 1 {
		t.Fatalf("igepa_replica_records_total = %v after halt, want 1 (stopped at the corrupt frame)", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("halted follower ready gauge = %v, want 0", v)
	}
}
