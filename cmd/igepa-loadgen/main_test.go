package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/workload"
)

func startTarget(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		Seed: 2, NumEvents: 12, NumUsers: 80,
		MaxEventCap: 10, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(in, server.Config{
		Shard: shard.Options{Shards: 2, Batch: 16, Seed: 2, CacheSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func captureRun(t *testing.T, cfg config) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "loadgen-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(f, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestOpenLoop(t *testing.T) {
	srv, ts := startTarget(t)
	out := captureRun(t, config{
		addr: ts.URL, mode: "open", rate: 50000, n: 60,
		seed: 1, timeout: 10 * time.Second,
	})
	if !strings.Contains(out, "open workload") || !strings.Contains(out, "sustained throughput") {
		t.Fatalf("report missing sections:\n%s", out)
	}
	st := srv.Stats()
	if st.Decided < 50 {
		t.Fatalf("only %d decided of 60 open-loop arrivals", st.Decided)
	}
}

func TestClosedLoopHitsCache(t *testing.T) {
	srv, ts := startTarget(t)
	out := captureRun(t, config{
		addr: ts.URL, mode: "closed", conc: 4, burst: 2, cycles: 3,
		think: time.Millisecond, seed: 1, timeout: 10 * time.Second,
	})
	if !strings.Contains(out, "closed workload") || !strings.Contains(out, "cache") {
		t.Fatalf("report missing sections:\n%s", out)
	}
	srv.Drain(5 * time.Second)
	st := srv.Stats()
	if st.Decided == 0 || st.Cancels == 0 {
		t.Fatalf("closed loop did not cycle: %+v", st)
	}
}

// TestMetricsSummaryDeltaRule pins the scrape-side per-run accounting:
// monotonic counters are reported as after−before deltas against the pre-run
// snapshot, clamp at zero across a counter reset (server restart mid-run),
// and fall back to labeled lifetime totals when the pre-run scrape failed.
func TestMetricsSummaryDeltaRule(t *testing.T) {
	var val atomic.Int64
	val.Store(100)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# TYPE igepa_slow_arrivals_total counter\nigepa_slow_arrivals_total %d\n", val.Load())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	hc := &http.Client{Timeout: time.Second}

	before := scrapeFamilies(hc, ts.URL)
	if before == nil {
		t.Fatal("pre-run scrape failed")
	}
	val.Store(107)
	var buf strings.Builder
	metricsSummary(&buf, hc, ts.URL, before)
	if out := buf.String(); !strings.Contains(out, "counters: this run") || !strings.Contains(out, "slow arrivals 7") {
		t.Fatalf("want per-run delta 7:\n%s", out)
	}

	buf.Reset()
	metricsSummary(&buf, hc, ts.URL, nil)
	if out := buf.String(); !strings.Contains(out, "server lifetime") || !strings.Contains(out, "slow arrivals 107") {
		t.Fatalf("want labeled lifetime totals without a snapshot:\n%s", out)
	}

	val.Store(3) // counter reset below the snapshot: delta clamps at 0
	buf.Reset()
	metricsSummary(&buf, hc, ts.URL, before)
	if out := buf.String(); !strings.Contains(out, "slow arrivals 0") {
		t.Fatalf("want clamped delta 0 after counter reset:\n%s", out)
	}
}

func TestRunRejectsBadTarget(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := run(null, config{addr: "http://127.0.0.1:1", mode: "open", timeout: time.Second}); err == nil {
		t.Error("unreachable target accepted")
	}
	_, ts := startTarget(t)
	if err := run(null, config{addr: ts.URL, mode: "sideways", timeout: time.Second}); err == nil {
		t.Error("unknown mode accepted")
	}
}
