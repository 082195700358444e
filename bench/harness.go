package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsn/igepa/internal/stats"
)

// spec mirrors BENCHMARK.json, the one catalogue of workload and metric
// names: the harness takes every unit from it and refuses a name it does
// not list, so the file and the program cannot drift apart.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo root,
// where the driver and `go run ./bench` start) or its parent (`go test`
// starts in bench/).
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var sp spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repo root): %w", lastErr)
}

// config is one run's input. smoke shrinks instances and op counts ~20× for
// `go test ./bench`; the driver never sets it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// pick returns full, or small under -smoke.
func (c config) pick(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's counts, violations and metric values.
type report struct {
	sp    *spec
	cfg   config
	defs  []metricDef       // the metrics this run must emit: the end-to-end or the per-layer half
	units map[string]string // their units by name
	tr    *tracer           // nil on the end-to-end run

	attempted, failed atomic.Int64
	opsPerS           float64 // the run's throughput, whichever half of the catalogue it reports

	mu         sync.Mutex
	values     map[string]float64
	violations []string
}

// put records a metric value; a name outside this run's half of the
// catalogue is a harness bug and is reported as a violation.
func (r *report) put(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.units[name]; !ok {
		r.violations = append(r.violations, "metric "+name+" is not in BENCHMARK.json for this run")
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// e2e and layer route a value to the run that reports it: end-to-end
// metrics come only from the untraced run, per-layer ones only from the
// traced run.
func (r *report) e2e(name string, v float64) {
	if !r.cfg.trace {
		r.put(name, v)
	}
}

func (r *report) layer(name string, v float64) {
	if r.cfg.trace {
		r.put(name, v)
	}
}

// throughput records ops_per_s, and keeps it for the traced run's overhead
// comparison with its untraced reference.
func (r *report) throughput(v float64) {
	r.opsPerS = v
	r.e2e("ops_per_s", v)
}

// op counts attempted operations and, of those, the failed ones.
func (r *report) op(n int64, failed int64) {
	r.attempted.Add(n)
	r.failed.Add(failed)
}

// violation records a failed correctness check; it counts as one failed
// operation and fails the run.
func (r *report) violation(format string, args ...any) {
	r.op(1, 1)
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// check counts one correctness check and records a violation if it failed.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(1, 0)
		return
	}
	r.violation(format, args...)
}

var workloads = map[string]func(config, *report) error{
	"plan_tall":       planTall,
	"plan_wide":       planWide,
	"replan_churn":    replanChurn,
	"serve_light":     serveLight,
	"serve_heavy":     serveHeavy,
	"cluster_durable": clusterDurable,
}

func newReport(sp *spec, cfg config) *report {
	defs := sp.EndToEnd
	if cfg.trace {
		defs = sp.PerLayer
	}
	r := &report{sp: sp, cfg: cfg, defs: defs, units: map[string]string{}, values: map[string]float64{}}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// reference runs fn as an untraced run of the same workload for the given
// share of the traced run's time and returns its ops_per_s: the base the
// traced run's throughput is compared with for bench.trace_overhead_pct.
// Its operations and violations count towards the traced run's result.
func (r *report) reference(share float64, setupReps int, fn func(config, *report, int) error) (float64, error) {
	cfg := r.cfg
	cfg.trace, cfg.seconds = false, r.cfg.seconds*share
	ref := newReport(r.sp, cfg)
	if err := fn(cfg, ref, setupReps); err != nil {
		return 0, err
	}
	r.op(ref.attempted.Load(), ref.failed.Load())
	r.violations = append(r.violations, ref.violations...)
	return ref.opsPerS, nil
}

// run executes one workload and assembles its result: every metric of the
// run's half of the catalogue, layers the workload leaves idle reading 0.
func run(sp *spec, cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newReport(sp, cfg)
	if err := fn(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.e2e("peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := r.tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metric{}}
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok && !cfg.trace {
			r.violations = append(r.violations, "end-to-end metric "+d.Name+" was not measured")
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
	fmt.Printf("attempted=%d failed=%d violations=%d\n", res.Attempted, res.Failed, len(r.violations))
	res.Correct = res.Failed == 0 && len(r.violations) == 0
	return res, nil
}

// --- spans ------------------------------------------------------------------

// span is one traced interval around a call into a layer's public function.
// Start and End are nanoseconds since the tracer was created; Parent is the
// index of the span that caused it (-1 for a root); Op identifies the
// operation (solve, update or request number) the span belongs to.
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start"`
	End    int64              `json:"end"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the end-to-end run pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// child records a span of known duration under parent, placed at the
// parent's start: for a layer that reports how long it ran inside a call
// (lp.PhaseTimers) but not when.
func (t *tracer) child(name string, parent, op int, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = map[string]float64{}
	}
	t.spans[id].Attrs[key] = v
	t.mu.Unlock()
}

// total is the summed duration of every span of that name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].End - t.spans[i].Start
		}
	}
	return float64(ns) / 1e9
}

// residualPct is the share of the named root spans' time that none of their
// direct children covers: the part of an operation the layer spans do not
// explain.
func (t *tracer) residualPct(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rootNS, childNS int64
	isRoot := make([]bool, len(t.spans))
	for i := range t.spans {
		if t.spans[i].Name == root {
			isRoot[i] = true
			rootNS += t.spans[i].End - t.spans[i].Start
		}
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 && isRoot[p] {
			childNS += t.spans[i].End - t.spans[i].Start
		}
	}
	if rootNS == 0 {
		return 0
	}
	return 100 * float64(rootNS-childNS) / float64(rootNS)
}

// maxSpansWritten caps the span file: a serving run records one span per
// request, and a reader needs the shape, not every one of 10⁵ requests.
const maxSpansWritten = 50_000

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload  string `json:"workload"`
		Spans     []span `json:"spans"`
		Total     int    `json:"total_spans"`
		Truncated bool   `json:"truncated"`
	}{Workload: workload, Spans: t.spans, Total: len(t.spans)}
	if len(out.Spans) > maxSpansWritten {
		out.Spans, out.Truncated = out.Spans[:maxSpansWritten], true
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	fmt.Printf("trace: %d spans -> %s\n", out.Total, path)
	return os.WriteFile(path, raw, 0o644)
}

// --- statistics ---------------------------------------------------------------

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile (0..1) of the samples by the tree's one
// quantile rule, stats.DurationPercentiles; 0 for an empty set.
func quantile(samples []time.Duration, q float64) time.Duration {
	return stats.DurationPercentiles(samples, q)[0]
}

func median(samples []time.Duration) time.Duration { return quantile(samples, 0.5) }

func sum(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget paces a measuring loop: more returns true while another unit of
// work is expected to finish within the allotted time, judged by the
// longest unit so far, so a run neither stops well short of nor overshoots
// its -seconds by more than a tenth.
type budget struct {
	start   time.Time
	limit   time.Duration
	longest time.Duration
	last    time.Time
	units   int
}

func newBudget(sec float64) *budget {
	now := time.Now()
	return &budget{start: now, last: now, limit: time.Duration(sec * float64(time.Second))}
}

func (b *budget) more() bool {
	now := time.Now()
	if b.units > 0 {
		if d := now.Sub(b.last); d > b.longest {
			b.longest = d
		}
	}
	b.last = now
	b.units++
	return b.units == 1 || now.Sub(b.start)+b.longest <= b.limit+b.limit/10
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// settle returns the heap to a known state between repetitions, so that a
// repetition's peak memory is its own live set plus its own garbage and not
// the previous repetition's.
func settle() {
	runtime.GC()
}

// repeatSetup times fn n times and returns the median: set-up time is
// gated like any end-to-end metric, and one sample of it would be noise.
func repeatSetup(n int, fn func() error) (time.Duration, error) {
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		settle()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
	}
	return median(times), nil
}
