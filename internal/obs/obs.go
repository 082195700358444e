// Package obs is the repo's dependency-free observability kit: a metrics
// registry (counters, gauges, fixed-bucket histograms) with Prometheus
// text exposition, an exposition parser/linter for tests and cluster
// fan-in, and a slow-arrival structured log.
//
// Design constraints, in priority order:
//
//  1. The hot path must be passive. Recording a sample reads the clock and
//     bumps atomics — it never takes a lock shared with a scraper, never
//     allocates, and never feeds back into a serving decision. The engine's
//     bit-identity contract (decisions are a pure function of instance,
//     order and Options) therefore holds with instrumentation on or off;
//     internal/server pins this with replay-equivalence and allocation
//     tests.
//  2. Scrapes must not stall serving. Exposition walks the registry under
//     the registration mutex, but samples are atomics — a slow scraper
//     holds no lock any recording path wants.
//  3. Bounded cardinality. Labels are baked at registration (no dynamic
//     label values on the hot path), and Registry.Lint rejects per-user /
//     per-event label keys outright. See DESIGN.md §12 for the naming and
//     cardinality rules.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's exposition TYPE.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one static label pair, baked into a series at registration time.
// Values are escaped at registration, so recording never touches them.
type Label struct{ Key, Value string }

// L is shorthand for a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// sample is one registered series: a pre-rendered label block plus its
// value source. Exactly one of the value fields is set, per family kind.
type sample struct {
	labels string // rendered {k="v",...} block, "" when unlabeled
	ctr    *Counter
	gauge  *Gauge
	gaugeF func() float64
	hist   *Histogram
}

// family is one metric name with its help text, kind and series.
type family struct {
	name    string
	help    string
	kind    Kind
	samples []*sample
	byLabel map[string]*sample
}

// Registry holds metric families in registration order. Registration takes
// a mutex; recording on returned handles is lock-free.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	by   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	f, ok := r.by[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*sample)}
		r.by[name] = f
		r.fams = append(r.fams, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) sampleFor(labels []Label) (*sample, bool) {
	key := renderLabels(labels)
	if s, ok := f.byLabel[key]; ok {
		return s, true
	}
	s := &sample{labels: key}
	f.byLabel[key] = s
	f.samples = append(f.samples, s)
	return s, false
}

// Counter is a monotonically increasing integer. Add/Inc are the normal
// writers (Add returns the new total, so a caller can act on the first
// increment exactly once); Store exists for mirrored totals — counters whose
// source of truth is an engine-internal cumulative counter read out at safe
// points (lease renewals) rather than incremented in place. Mirrored values
// must still be monotonic; Store never moves the value backwards.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()              { c.v.Add(1) }
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }
func (c *Counter) Load() int64       { return c.v.Load() }
func (c *Counter) Store(n int64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Gauge is a float64 that can go up and down, stored as bits in an atomic.
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Observe is
// wait-free per bucket counter and CAS-loops only on the shared sum; it
// never allocates (pinned by TestObserveAllocs).
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records v (in the histogram's native unit — seconds for latency
// histograms by convention).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile as the upper bound of the first bucket
// whose cumulative count reaches q × total — the rule igepa-loadgen applies
// to a scraped exposition, so both report the same number for the same
// histogram. An empty histogram reports 0, and a quantile that lands in the
// +Inf bucket reports the last finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	want := q * float64(total)
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		if float64(cum) >= want {
			return ub
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindCounter)
	s, ok := f.sampleFor(labels)
	if !ok {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge)
	s, ok := f.sampleFor(labels)
	if !ok {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time. fn
// must be safe to call from the scrape goroutine and must not take locks a
// recording path holds while blocked on I/O.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge)
	s, _ := f.sampleFor(labels)
	s.gaugeF = fn
	s.gauge = nil
}

// Histogram registers (or returns the existing) histogram series. buckets
// are ascending upper bounds; +Inf is implicit and must not be included.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindHistogram)
	s, ok := f.sampleFor(labels)
	if !ok {
		b := append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(b) {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
		s.hist = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return s.hist
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the tree-wide latency layout: 1µs … ~16s, factor 2.
// 25 buckets keeps /metrics small while the factor-2 spacing bounds the
// quantile estimation error to 2× — good enough for alerting, and the
// resolution of /statsz's percentiles, which Quantile reads off these
// same histograms.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 25) }

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4). Families appear in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind)
		for _, s := range f.samples {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.ctr.Load())
			case KindGauge:
				v := 0.0
				if s.gaugeF != nil {
					v = s.gaugeF()
				} else {
					v = s.gauge.Load()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(v))
			case KindHistogram:
				writeHistogram(&b, f.name, s)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(b *strings.Builder, name string, s *sample) {
	h := s.hist
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", formatFloat(ub)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum)
}

// Handler serves the registry with the 0.0.4 content type. The caller
// mounts it as "GET /metrics", so the mux answers other methods with 405.
// A non-nil refresh runs before each exposition, to mirror counters whose
// sources live outside the registry.
func (r *Registry) Handler(refresh func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if refresh != nil {
			refresh()
		}
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// renderLabels renders a sorted, escaped {k="v",...} block ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel returns the label block with one more pair appended (the
// histogram le label).
func withLabel(block, k, v string) string {
	pair := k + `="` + escapeValue(v) + `"`
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

func escapeValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// formatFloat renders a float the way Prometheus expects: integers without
// an exponent, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
