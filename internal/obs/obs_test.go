package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_queue_depth", "Current queue depth.", L("shard", "0"))
	g.Set(5)
	r.GaugeFunc("test_live", "Scrape-time gauge.", func() float64 { return 2.5 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
		`test_queue_depth{shard="0"} 5`,
		"test_live 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterStoreMonotonic(t *testing.T) {
	var c Counter
	c.Store(10)
	c.Store(7) // never moves backwards
	if got := c.Load(); got != 10 {
		t.Fatalf("Store went backwards: %d", got)
	}
	c.Store(12)
	if got := c.Load(); got != 12 {
		t.Fatalf("Store(12) = %d", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0.001
	h.Observe(0.001)  // le is inclusive: still bucket 0.001
	h.Observe(0.05)   // bucket 0.1
	h.Observe(5)      // +Inf

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.001"} 2`,
		`test_latency_seconds_bucket{le="0.01"} 2`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d, want 4", h.Count())
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if math.Abs(sum-5.0515) > 1e-9 {
		t.Errorf("sum = %v, want 5.0515", sum)
	}
}

// TestHistogramQuantile pins the bucket-bound rule on hand-built
// distributions: the first bound whose cumulative count reaches q × total,
// 0 when empty, the last finite bound when the quantile lands in +Inf.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	for _, tc := range []struct {
		name    string
		samples []float64
		q, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single sample", []float64{3}, 0.5, 4},
		{"single sample p99", []float64{3}, 0.99, 4},
		{"le is inclusive", []float64{2}, 0.5, 2},
		// 10 samples: 5 in (0,1], 4 in (1,2], 1 in (4,8].
		{"median at the boundary", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 7}, 0.5, 1},
		{"just past the boundary", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 7}, 0.51, 2},
		{"p90", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 7}, 0.90, 2},
		{"p99 reaches the tail bucket", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 7}, 0.99, 8},
		{"+Inf reports the last finite bound", []float64{0.5, 100}, 0.99, 8},
		{"all in +Inf", []float64{100, 200}, 0.5, 8},
	} {
		h := NewRegistry().Histogram("q_seconds", "Quantile fixture.", bounds)
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "x", L("shard", "1"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", LatencyBuckets())
	c := r.Counter("c_total", "c")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%7) * 1e-4)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 || c.Load() != 8000 {
		t.Fatalf("lost updates: hist=%d ctr=%d", h.Count(), c.Load())
	}
}

// TestObserveAllocs pins the hot-path contract every serving loop relies
// on: recording a sample allocates nothing.
func TestObserveAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("a_seconds", "a", LatencyBuckets())
	c := r.Counter("a_total", "a")
	g := r.Gauge("a_depth", "a")
	sl := NewSlowLog(time.Hour, io.Discard)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(1.5e-4)
		h.ObserveDuration(150 * time.Microsecond)
		c.Inc()
		g.Set(3)
		if sl.Slow(time.Microsecond) {
			t.Fatal("hour threshold marked 1µs slow")
		}
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}

func TestHandlerAndRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "rt", L("code", "429")).Add(3)
	h := r.Histogram("rt_seconds", "rt hist", []float64{0.01, 0.1})
	h.Observe(0.02)

	srv := httptest.NewServer(r.Handler(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	fams, err := ParseFamilies(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	ctr, ok := byName["rt_total"]
	if !ok || ctr.Type != "counter" {
		t.Fatalf("rt_total missing or mistyped: %+v", ctr)
	}
	if got := ctr.Samples[0].Label("code"); got != "429" {
		t.Errorf("code label = %q", got)
	}
	if v, _ := ctr.Samples[0].Float(); v != 3 {
		t.Errorf("rt_total = %v", v)
	}
	hist, ok := byName["rt_seconds"]
	if !ok || hist.Type != "histogram" {
		t.Fatalf("rt_seconds missing or mistyped")
	}
	if len(hist.Samples) != 3+2 { // 2 bounds + Inf + sum + count
		t.Errorf("histogram samples = %d, want 5", len(hist.Samples))
	}
}

func TestMergeRelabeled(t *testing.T) {
	scrape := func(val string) []Family {
		r := NewRegistry()
		r.Counter("m_total", "m").Add(int64(len(val)))
		r.Gauge("m_depth", "d", L("q", "0")).Set(2)
		h := r.Histogram("m_seconds", "h", []float64{0.5})
		h.Observe(0.25)
		var b bytes.Buffer
		r.WritePrometheus(&b)
		fams, err := ParseFamilies(&b)
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	var out bytes.Buffer
	err := MergeRelabeled(&out, "shard", []RelabeledSource{
		{Value: "0", Families: scrape("a")},
		{Value: "1", Families: scrape("bb")},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := out.String()
	for _, want := range []string{
		`m_total{shard="0"} 1`,
		`m_total{shard="1"} 2`,
		`m_depth{shard="0",q="0"} 2`,
		`m_seconds_bucket{shard="1",le="0.5"} 1`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged output missing %q:\n%s", want, merged)
		}
	}
	if strings.Count(merged, "# TYPE m_total counter") != 1 {
		t.Errorf("TYPE header not deduplicated:\n%s", merged)
	}
	if probs := LintExposition(strings.NewReader(merged)); len(probs) != 0 {
		t.Errorf("merged exposition fails lint: %v", probs)
	}
}

// TestMergeRelabeledCollision pins the federation convention: a source
// label that collides with the fan-in key is renamed exported_<key>, never
// duplicated, and escaped values survive the rewrite verbatim.
func TestMergeRelabeledCollision(t *testing.T) {
	scrape := func() []Family {
		r := NewRegistry()
		r.Gauge("q_depth", "d", L("shard", "0")).Set(3)
		r.Counter("odd_total", "o", L("name", `a\"b,c`), L("shard", "9")).Add(1)
		var b bytes.Buffer
		r.WritePrometheus(&b)
		fams, err := ParseFamilies(&b)
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	var out bytes.Buffer
	if err := MergeRelabeled(&out, "shard", []RelabeledSource{{Value: "1", Families: scrape()}}); err != nil {
		t.Fatal(err)
	}
	merged := out.String()
	for _, want := range []string{
		`q_depth{shard="1",exported_shard="0"} 3`,
		`exported_shard="9"`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged output missing %q:\n%s", want, merged)
		}
	}
	if probs := LintExposition(strings.NewReader(merged)); len(probs) != 0 {
		t.Errorf("collision merge fails lint: %v", probs)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(10*time.Millisecond, &buf)
	if sl.Slow(9 * time.Millisecond) {
		t.Fatal("below threshold marked slow")
	}
	total := 15 * time.Millisecond
	if !sl.Slow(total) {
		t.Fatal("above threshold not slow")
	}
	sl.Note("bid", 17, 3, total, []Span{{"wait", 9 * time.Millisecond}, {"decide", 6 * time.Millisecond}})
	line := buf.String()
	for _, want := range []string{"slowlog op=bid", "user=17", "shard=3", "total=15ms", "wait=9ms", "decide=6ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("slowlog line missing %q: %s", want, line)
		}
	}
	if sl.Count() != 1 {
		t.Errorf("Count = %d", sl.Count())
	}
	var nilLog *SlowLog
	if nilLog.Slow(time.Hour) || nilLog.Count() != 0 {
		t.Error("nil SlowLog must be disabled")
	}
	nilLog.Note("x", 0, 0, 0, nil) // must not panic
	if NewSlowLog(0, &buf) != nil {
		t.Error("zero threshold must disable")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	lb := LatencyBuckets()
	if lb[0] != 1e-6 || len(lb) != 25 {
		t.Errorf("LatencyBuckets shape changed: first=%v len=%d", lb[0], len(lb))
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		42:             "42",
		2.5:            "2.5",
		0:              "0",
		math.Inf(1):    "+Inf",
		1e-6:           "1e-06",
		0.000244140625: "0.000244140625",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestParseFamiliesTimestampAndEscapes(t *testing.T) {
	in := "# TYPE x_total counter\nx_total{path=\"a\\\\b\\\"c\\nd\"} 7 1712345678\n"
	fams, err := ParseFamilies(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fams[0].Samples[0].Value != "7" {
		t.Errorf("timestamp not stripped: %q", fams[0].Samples[0].Value)
	}
	if got := fams[0].Samples[0].Label("path"); got != "a\\b\"c\nd" {
		t.Errorf("unescape failed: %q", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "b", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("b_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter("w_total", "w", L("shard", fmt.Sprint(i))).Add(int64(i))
		r.Histogram("w_seconds", "w", LatencyBuckets(), L("shard", fmt.Sprint(i))).Observe(1e-4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.WritePrometheus(io.Discard)
	}
}
