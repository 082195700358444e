// Command igepa-loadgen drives live traffic against an igepa-serve HTTP
// front-end (igepa-serve -listen) and reports sustained throughput and tail
// latency — the measurement half of the serving subsystem.
//
// Two workload shapes:
//
//   - open:   open-loop Poisson arrivals. Requests fire at exponentially
//     distributed gaps at the target rate regardless of how fast the server
//     answers — the canonical way to expose queueing collapse, because a
//     slow server keeps receiving load. Each user from a seeded permutation
//     arrives once.
//
//   - closed: closed-loop bursty clients. C workers each own a slice of the
//     user population and cycle bid → cancel in bursts of K back-to-back
//     requests followed by a think pause. Re-submitting the same users makes
//     this the repeat-bid workload.
//
// The generator discovers the instance shape from /healthz, honors 429
// backpressure (Retry-After), and finishes by printing the server's own
// /statsz view (queue depths, per-shard utility) next to
// the client-side latency distribution.
//
// Usage:
//
//	igepa-loadgen -addr http://localhost:8080                   # open loop
//	igepa-loadgen -addr ... -mode open -rate 2000 -n 5000
//	igepa-loadgen -addr ... -mode closed -conc 16 -burst 8 -cycles 50
//	igepa-loadgen -addr ... -mode closed -duration 30s -think 5ms
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/stats"
	"github.com/ebsn/igepa/internal/xrand"
)

type config struct {
	addr     string
	mode     string
	rate     float64
	n        int
	conc     int
	burst    int
	think    time.Duration
	duration time.Duration
	cycles   int
	seed     int64
	timeout  time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://localhost:8080", "base URL of the igepa-serve -listen server")
	flag.StringVar(&cfg.mode, "mode", "open", "workload shape: open (Poisson) or closed (bursty bid/cancel)")
	flag.Float64Var(&cfg.rate, "rate", 1000, "open loop: mean arrivals per second")
	flag.IntVar(&cfg.n, "n", 0, "open loop: total arrivals (0 = one per user)")
	flag.IntVar(&cfg.conc, "conc", 8, "closed loop: concurrent workers")
	flag.IntVar(&cfg.burst, "burst", 4, "closed loop: requests per burst")
	flag.DurationVar(&cfg.think, "think", 2*time.Millisecond, "closed loop: pause between bursts")
	flag.DurationVar(&cfg.duration, "duration", 0, "closed loop: run time (0 = use -cycles)")
	flag.IntVar(&cfg.cycles, "cycles", 25, "closed loop: bid/cancel cycles per worker when -duration is 0")
	flag.Int64Var(&cfg.seed, "seed", 1, "arrival-order seed")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request timeout")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "igepa-loadgen:", err)
		os.Exit(1)
	}
}

// tally aggregates client-side outcomes across workers.
type tally struct {
	mu       sync.Mutex
	lats     []time.Duration
	ok       int
	rejected int // 429
	conflict int // 409
	unavail  int // 503
	errs     int
}

func (t *tally) record(d time.Duration) {
	t.mu.Lock()
	t.ok++
	t.lats = append(t.lats, d)
	t.mu.Unlock()
}

func (t *tally) count(status int) {
	t.mu.Lock()
	switch status {
	case http.StatusTooManyRequests:
		t.rejected++
	case http.StatusConflict:
		t.conflict++
	case http.StatusServiceUnavailable:
		t.unavail++
	default:
		t.errs++
	}
	t.mu.Unlock()
}

type health struct {
	Status    string `json:"status"`
	NumUsers  int    `json:"num_users"`
	NumEvents int    `json:"num_events"`
	Shards    int    `json:"shards"`
	Mode      string `json:"mode"`
}

func run(w io.Writer, cfg config) error {
	hc := &http.Client{Timeout: cfg.timeout}
	var h health
	if err := getJSON(hc, cfg.addr+"/healthz", &h); err != nil {
		return fmt.Errorf("probing %s/healthz: %w", cfg.addr, err)
	}
	fmt.Fprintf(w, "target %s: %s server, %s mode, |U|=%d |V|=%d S=%d\n",
		cfg.addr, h.Status, h.Mode, h.NumUsers, h.NumEvents, h.Shards)

	// Snapshot /metrics before generating load: the exposition's counters
	// are cumulative over the server's lifetime, so against a long-running
	// server only the before/after delta describes THIS run. Best-effort —
	// nil against a server without /metrics.
	before := scrapeFamilies(hc, cfg.addr)

	var t tally
	start := time.Now()
	var err error
	switch cfg.mode {
	case "open":
		err = openLoop(hc, cfg, h.NumUsers, &t)
	case "closed":
		err = closedLoop(hc, cfg, h.NumUsers, &t)
	default:
		err = fmt.Errorf("unknown mode %q (want open or closed)", cfg.mode)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	report(w, cfg, &t, elapsed)

	var serverStats map[string]any
	if err := getJSON(hc, cfg.addr+"/statsz", &serverStats); err != nil {
		return fmt.Errorf("fetching /statsz: %w", err)
	}
	raw, _ := json.MarshalIndent(serverStats, "", "  ")
	fmt.Fprintf(w, "\nserver /statsz:\n%s\n", raw)
	metricsSummary(w, hc, cfg.addr, before)
	return nil
}

// scrapeFamilies fetches and parses the /metrics exposition, indexed by
// family name. Returns nil on any failure (old build, -DisableMetrics).
func scrapeFamilies(hc *http.Client, addr string) map[string]*obs.Family {
	resp, err := hc.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	fams, err := obs.ParseFamilies(resp.Body)
	if err != nil {
		return nil
	}
	byName := make(map[string]*obs.Family, len(fams))
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}
	return byName
}

// sumFamily totals the matching samples of one family (0 when absent).
func sumFamily(byName map[string]*obs.Family, name string, match func(s *obs.Sample) bool) (total float64) {
	f := byName[name]
	if f == nil {
		return 0
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		if match != nil && !match(s) {
			continue
		}
		v, err := s.Float()
		if err == nil {
			total += v
		}
	}
	return total
}

// metricsSummary scrapes the server's /metrics exposition at the end of the
// run and prints the server-side counters the client-side tally cannot see:
// queue pressure, WAL fsync tail, sheds, slow arrivals and the LP solver's
// warm-path health. Monotonic counters are reported as deltas against the
// pre-run snapshot (falling back to absolute totals when that scrape
// failed); gauges and histogram quantiles are point-in-time. Best-effort — a
// server without /metrics (old build, -DisableMetrics) just skips it.
func metricsSummary(w io.Writer, hc *http.Client, addr string, before map[string]*obs.Family) {
	byName := scrapeFamilies(hc, addr)
	if byName == nil {
		fmt.Fprintf(w, "\nserver /metrics: unavailable\n")
		return
	}
	sum := func(name string, match func(s *obs.Sample) bool) float64 {
		return sumFamily(byName, name, match)
	}
	// delta is the per-run increment of a monotonic counter family. Clamped
	// at 0: a server restart mid-run resets the sources, and a stale
	// pre-run snapshot must not produce negative traffic.
	delta := func(name string, match func(s *obs.Sample) bool) float64 {
		d := sumFamily(byName, name, match)
		if before != nil {
			d -= sumFamily(before, name, match)
		}
		if d < 0 {
			d = 0
		}
		return d
	}
	code := func(c string) func(*obs.Sample) bool {
		return func(s *obs.Sample) bool { return s.Label("code") == c }
	}
	label := func(k, v string) func(*obs.Sample) bool {
		return func(s *obs.Sample) bool { return s.Label(k) == v }
	}
	scope := "this run"
	if before == nil {
		scope = "server lifetime — pre-run scrape failed"
	}
	fmt.Fprintf(w, "\nserver /metrics summary (counters: %s):\n", scope)
	fmt.Fprintf(w, "  queue: deepest %.0f of limit %.0f (occupancy %.1f%%)\n",
		maxSample(byName["igepa_queue_depth"]),
		sum("igepa_queue_limit", nil),
		100*sum("igepa_queue_occupancy", nil))
	fmt.Fprintf(w, "  shed: %.0f × 429 · %.0f × 503 · slow arrivals %.0f\n",
		delta("igepa_http_errors_total", code("429")),
		delta("igepa_http_errors_total", code("503")),
		delta("igepa_slow_arrivals_total", nil))
	if p99, ok := histQuantile(byName["igepa_wal_fsync_seconds"], 0.99); ok {
		fmt.Fprintf(w, "  wal: %.0f appends · %.0f fsyncs · fsync p99 ≤ %s\n",
			delta("igepa_wal_appends_total", nil), delta("igepa_wal_syncs_total", nil),
			time.Duration(p99*float64(time.Second)).Round(time.Microsecond))
	}
	if p99, ok := histQuantile(byName["igepa_total_seconds"], 0.99); ok {
		fmt.Fprintf(w, "  server-side total latency p99 ≤ %s\n",
			time.Duration(p99*float64(time.Second)).Round(time.Microsecond))
	}
	if warm, cold := delta("igepa_lp_warm_solves_total", nil), delta("igepa_lp_cold_solves_total", nil); warm+cold > 0 {
		fmt.Fprintf(w, "  lp: %.0f warm · %.0f cold · %.0f fast finishes · %.0f warm pivots\n",
			warm, cold,
			delta("igepa_lp_fast_finishes_total", nil),
			delta("igepa_lp_warm_pivots_total", nil))
		if fb := delta("igepa_lp_fallbacks_total", nil); fb > 0 {
			fmt.Fprintf(w, "  lp fallbacks: %.0f (singular %.0f · repair_stall %.0f · bound_infeasible %.0f · error %.0f)\n",
				fb,
				delta("igepa_lp_fallbacks_total", label("reason", "singular")),
				delta("igepa_lp_fallbacks_total", label("reason", "repair_stall")),
				delta("igepa_lp_fallbacks_total", label("reason", "bound_infeasible")),
				delta("igepa_lp_fallbacks_total", label("reason", "error")))
		}
		fmt.Fprintf(w, "  lp kernels: %.0f hypersparse ftran · %.0f hypersparse btran · %.0f budget exhaustions · %.0f cutovers\n",
			delta("igepa_lp_hypersparse_solves_total", label("kernel", "ftran")),
			delta("igepa_lp_hypersparse_solves_total", label("kernel", "btran")),
			delta("igepa_lp_repair_budget_exhausted_total", nil),
			delta("igepa_lp_partial_warm_cutovers_total", nil))
	}
}

// maxSample returns the largest sample value in a family (0 when absent).
func maxSample(f *obs.Family) (max float64) {
	if f == nil {
		return 0
	}
	for i := range f.Samples {
		if v, err := f.Samples[i].Float(); err == nil && v > max {
			max = v
		}
	}
	return max
}

// histQuantile estimates quantile q from a cumulative Prometheus histogram:
// the upper bound of the first bucket whose cumulative count reaches
// q × total. Reported as "≤ bound" — the resolution is the bucket layout's.
func histQuantile(f *obs.Family, q float64) (float64, bool) {
	if f == nil {
		return 0, false
	}
	type bucket struct{ le, n float64 }
	var buckets []bucket
	for i := range f.Samples {
		s := &f.Samples[i]
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le := s.Label("le")
		if le == "" {
			continue
		}
		var ub float64
		if le == "+Inf" {
			ub = math.Inf(1)
		} else if v, err := strconv.ParseFloat(le, 64); err == nil {
			ub = v
		} else {
			continue
		}
		if n, err := s.Float(); err == nil {
			buckets = append(buckets, bucket{ub, n})
		}
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].n
	if total == 0 {
		return 0, false
	}
	want := q * total
	for _, b := range buckets {
		if b.n >= want && !math.IsInf(b.le, 1) {
			return b.le, true
		}
	}
	return buckets[len(buckets)-1].le, !math.IsInf(buckets[len(buckets)-1].le, 1)
}

// openLoop fires bid submissions at exponentially distributed gaps: an
// open-loop generator never waits for responses before sending the next
// request, so server slowness shows up as latency, not reduced load.
func openLoop(hc *http.Client, cfg config, numUsers int, t *tally) error {
	n := cfg.n
	if n <= 0 || n > numUsers {
		n = numUsers
	}
	rate := cfg.rate
	if rate <= 0 {
		rate = 1000
	}
	rng := xrand.New(cfg.seed)
	order := rng.Perm(numUsers)[:n]
	var wg sync.WaitGroup
	next := time.Now()
	for _, u := range order {
		next = next.Add(time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			t0 := time.Now()
			status, _, err := postBid(hc, cfg.addr, u, true)
			if err != nil {
				t.count(0)
				return
			}
			if status == http.StatusOK {
				t.record(time.Since(t0))
			} else {
				t.count(status)
			}
		}(u)
	}
	wg.Wait()
	return nil
}

// closedLoop runs C workers over disjoint user slices, each cycling
// bid → cancel in bursts of K, honoring Retry-After on 429.
func closedLoop(hc *http.Client, cfg config, numUsers int, t *tally) error {
	conc := cfg.conc
	if conc <= 0 {
		conc = 8
	}
	if conc > numUsers {
		conc = numUsers
	}
	burst := cfg.burst
	if burst <= 0 {
		burst = 1
	}
	deadline := time.Time{}
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	var wg sync.WaitGroup
	for wi := 0; wi < conc; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			users := workerUsers(wi, conc, numUsers)
			for cycle := 0; ; cycle++ {
				if deadline.IsZero() {
					if cycle >= cfg.cycles {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				fired := 0
				for _, u := range users {
					t0 := time.Now()
					status, retry, err := postBid(hc, cfg.addr, u, true)
					if err != nil {
						t.count(0)
						continue
					}
					switch status {
					case http.StatusOK:
						t.record(time.Since(t0))
						postCancel(hc, cfg.addr, u)
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						// 429 is queue backpressure; 503 is a transient
						// unavailability (a router mid-renewal, a shard
						// failing over) — both may carry a Retry-After hint.
						t.count(status)
						if retry <= 0 {
							retry = time.Millisecond
						}
						time.Sleep(retry)
					case http.StatusConflict:
						// the user is already decided (e.g. by an earlier
						// run against the same server): release them so the
						// next cycle can re-submit
						t.count(status)
						postCancel(hc, cfg.addr, u)
					default:
						t.count(status)
					}
					if fired++; fired%burst == 0 && cfg.think > 0 {
						time.Sleep(cfg.think)
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	return nil
}

// workerUsers returns worker wi's slice of the population.
func workerUsers(wi, conc, numUsers int) []int {
	var users []int
	for u := wi; u < numUsers; u += conc {
		users = append(users, u)
	}
	return users
}

func report(w io.Writer, cfg config, t *tally, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.ok + t.rejected + t.conflict + t.unavail + t.errs
	fmt.Fprintf(w, "\n%s workload: %d requests in %s\n", cfg.mode, total, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  decided %d · rejected(429) %d · conflict(409) %d · unavailable(503) %d · errors %d\n",
		t.ok, t.rejected, t.conflict, t.unavail, t.errs)
	if elapsed > 0 {
		fmt.Fprintf(w, "  sustained throughput: %.0f decided/s\n", float64(t.ok)/elapsed.Seconds())
	}
	if len(t.lats) == 0 {
		return
	}
	ps := stats.DurationPercentiles(t.lats, 0.50, 0.95, 0.99, 1)
	fmt.Fprintf(w, "  latency p50 %s · p95 %s · p99 %s · max %s\n",
		ps[0].Round(time.Microsecond), ps[1].Round(time.Microsecond),
		ps[2].Round(time.Microsecond), ps[3].Round(time.Microsecond))
}

// postBid submits a bid; on 429 or 503 it returns the server's Retry-After
// hint as retry (zero otherwise) so the caller can honor the backpressure.
func postBid(hc *http.Client, addr string, user int, wait bool) (status int, retry time.Duration, err error) {
	body, _ := json.Marshal(map[string]any{"user": user, "wait": wait})
	resp, err := hc.Post(addr+"/v1/bid", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			retry = time.Duration(ra) * time.Second
		}
	}
	return resp.StatusCode, retry, nil
}

func postCancel(hc *http.Client, addr string, user int) {
	body, _ := json.Marshal(map[string]int{"user": user})
	resp, err := hc.Post(addr+"/v1/cancel", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
