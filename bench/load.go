package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/obs"
)

// The load generator runs in-process: goroutines call the handler's
// ServeHTTP with httptest recorders, so a latency covers decode → queue →
// batch → decide → (WAL) → encode and no kernel TCP stack. The only sockets
// of the suite are the router's own connections to its shard backends.

// sloLimit is the latency, from due time, within which a bid must get its
// 200 to count towards slo_share.
const sloLimit = 10 * time.Millisecond

// cancelAfter is how long after its due time an open-loop bid is cancelled.
const cancelAfter = 100 * time.Millisecond

// serveClients is the closed-loop client count of the single-process
// serving workloads. At 32 = Shards×MicroBatch in flight the loop sits on
// the edge between full batches and batches that wait out the flush timer,
// and two runs of one seed land on either side (82k against 101k cycles/s,
// 74% against 93% of the CPU busy); 128 keeps every shard's queue above
// MicroBatch, so the phase is bound by CPU and repeats within ~5%.
const serveClients = 128

// clusterClients is the client count through the router: 32 in flight, where
// the router's hop and not the shards' batching sets the pace.
const clusterClients = 32

// driver issues requests against one handler. A non-nil tracer records a
// span named span around every bid.
type driver struct {
	h      http.Handler
	route  func(u int) http.Handler // per-user handler (straight to the owning shard); nil means h
	bodies [][]byte                 // bodies[u] is the JSON body naming user u
	tr     *tracer
	span   string
}

func newDriver(h http.Handler, numUsers int, tr *tracer, spanName string) *driver {
	d := &driver{h: h, tr: tr, span: spanName, bodies: make([][]byte, numUsers)}
	for u := range d.bodies {
		d.bodies[u] = []byte(`{"user":` + strconv.Itoa(u) + `}`)
	}
	return d
}

func (d *driver) handler(u int) http.Handler {
	if d.route != nil {
		return d.route(u)
	}
	return d.h
}

func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the harness's own paths are constants
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func (d *driver) bid(u, op int) int {
	id := d.tr.begin(d.span, -1, op)
	code := do(d.handler(u), http.MethodPost, "/v1/bid", d.bodies[u]).Code
	d.tr.end(id)
	return code
}

func (d *driver) cancel(u int) int {
	return do(d.handler(u), http.MethodPost, "/v1/cancel", d.bodies[u]).Code
}

func (d *driver) assignment(u int) *httptest.ResponseRecorder {
	return do(d.handler(u), http.MethodGet, "/v1/assignment?user="+strconv.Itoa(u), nil)
}

// getJSON decodes a 200 answer into out.
func getJSON(h http.Handler, path string, out any) error {
	rec := do(h, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// --- open loop ----------------------------------------------------------------

type openResult struct {
	rate         float64
	sent, ok     int64
	within       int64           // 200 within sloLimit of due time
	cancelFailed int64           // cancels that did not get 200
	lat          []time.Duration // of the ok bids, from due time
	late         []time.Duration // pacer lateness per bid: fired − due
	backlog      int64           // bids still in flight when the last one was fired
}

func (o *openResult) failed() int64     { return o.sent - o.ok + o.cancelFailed }
func (o *openResult) sloShare() float64 { return ratio(float64(o.within), float64(o.sent)) }

// growing reports whether the phase ended with a backlog: more bids in
// flight than 20 ms of arrivals.
func (o *openResult) growing() bool {
	limit := int64(o.rate * 0.02)
	if limit < 64 {
		limit = 64
	}
	return o.backlog > limit
}

// quantile is the sliced q-quantile of the ok bids' latencies, which are in
// arrival order.
func (o *openResult) quantile(q float64) time.Duration {
	return slicedQuantile([][]time.Duration{o.lat}, q)
}

func (o *openResult) String() string {
	return fmt.Sprintf("open loop %.0f/s: sent=%d ok=%d failed=%d slo=%.4f p50=%.3fms p90=%.3fms late_p99=%.3fms backlog=%d",
		o.rate, o.sent, o.ok, o.failed(), o.sloShare(), millis(o.quantile(0.5)), millis(o.quantile(0.9)),
		millis(quantile(o.late, 0.99)), o.backlog)
}

// openLoop sends Poisson arrivals at rate bids/s for dur from one pacer
// goroutine, which sleeps to the next due time and fires everything due.
// Arrival i bids for perm[i mod |U|] and cancels cancelAfter after its due
// time. Every latency is measured from the bid's due time, so a stall is
// charged to the requests it delayed.
func openLoop(d *driver, perm []int, rate float64, dur time.Duration, rng *rand.Rand) *openResult {
	res := &openResult{rate: rate}
	max := int(rate*seconds(dur)*1.5) + 1024
	lat := make([]time.Duration, max) // lat[i] < 0: bid i failed
	res.late = make([]time.Duration, 0, max)
	var wg sync.WaitGroup
	var inflight, cancelFailed atomic.Int64

	start := time.Now()
	end := start.Add(dur)
	n := 0
	for due := start; n < max && due.Before(end); {
		now := time.Now()
		if due.After(now) {
			time.Sleep(due.Sub(now))
			continue
		}
		i, at, u := n, due, perm[n%len(perm)]
		res.late = append(res.late, now.Sub(at))
		res.backlog = inflight.Add(1) - 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			code := d.bid(u, i)
			lat[i] = time.Since(at)
			inflight.Add(-1)
			if code != http.StatusOK {
				lat[i] = -1
				return
			}
			// Never before the bid's answer: a cancel that overtook its bid
			// in a stall would leave the user seated for the rest of the run.
			time.Sleep(time.Until(at.Add(cancelAfter)))
			if d.cancel(u) != http.StatusOK {
				cancelFailed.Add(1)
			}
		}()
		n++
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
	}
	wg.Wait()

	res.sent = int64(n)
	res.cancelFailed = cancelFailed.Load()
	for _, l := range lat[:n] {
		if l < 0 {
			continue
		}
		res.ok++
		res.lat = append(res.lat, l)
		if l <= sloLimit {
			res.within++
		}
	}
	return res
}

// phaseSlices is how many equal parts a timed phase is cut into for its
// robust statistics: a latency percentile or a throughput is taken per part
// and the median over the parts is reported, so that a stall of the machine
// during a few parts of the phase does not move the result.
const phaseSlices = 12

// slicedQuantile is the median over the phase's parts of the q-quantile of
// the latencies in that part. Each series is one time-ordered sequence of
// samples spanning the phase: the open loop's arrivals, or one closed-loop
// client's bids. With fewer than 100 samples a part it is the plain quantile
// of them all.
func slicedQuantile(series [][]time.Duration, q float64) time.Duration {
	total := 0
	for _, s := range series {
		total += len(s)
	}
	parts := phaseSlices
	if total < parts*100 {
		parts = 1
	}
	per := make([]time.Duration, parts)
	var pool []time.Duration
	for j := range per {
		pool = pool[:0]
		for _, s := range series {
			pool = append(pool, s[j*len(s)/parts:(j+1)*len(s)/parts]...)
		}
		per[j] = quantile(pool, q)
	}
	return median(per)
}

// --- closed loop --------------------------------------------------------------

type closedResult struct {
	clients        int
	bids           int64 // bids sent: cycles plus the bids that failed
	cycles, failed int64
	elapsed        time.Duration
	lat            [][]time.Duration // per client, in time order: bid latencies (a strided sample of them on long runs)
	slices         []float64         // cycles/s of each twelfth of the run
	cpu            time.Duration     // process CPU time (user+system) over the run
}

// cpuTime is the process's CPU time so far; 0 if the kernel will not say.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perSecond is the loop's throughput: the median over twelfths of the run
// when it was long enough to slice, so that a stall of the machine during
// one slice does not move the result; cycles over elapsed time otherwise.
func (c *closedResult) perSecond() float64 {
	if len(c.slices) >= 6 {
		return medianFloat(c.slices)
	}
	return float64(c.cycles) / seconds(c.elapsed)
}

func (c *closedResult) quantile(q float64) time.Duration { return slicedQuantile(c.lat, q) }

func (c *closedResult) String() string {
	return fmt.Sprintf("closed loop %d clients: cycles=%d failed=%d %.0f cycles/s (cpu busy %.0f%%) bid p50=%.3fms p90=%.3fms",
		c.clients, c.cycles, c.failed, c.perSecond(), 100*seconds(c.cpu)/seconds(c.elapsed)/float64(runtime.GOMAXPROCS(0)),
		millis(c.quantile(0.5)), millis(c.quantile(0.9)))
}

// sampler keeps a bounded, evenly strided subset of a client's latencies:
// every one until samplerCap are kept, then every 2nd, 4th, ... Without the
// bound the harness's own sample arrays grow with throughput and show up in
// peak_rss_mb (a third of serve_light's peak before).
type sampler struct {
	kept      []time.Duration
	stride, n int
}

const samplerCap = 2048

func newSampler() *sampler {
	return &sampler{kept: make([]time.Duration, 0, samplerCap), stride: 1}
}

func (s *sampler) add(d time.Duration) {
	if s.n%s.stride == 0 {
		if len(s.kept) == samplerCap {
			for i := 0; i < samplerCap/2; i++ {
				s.kept[i] = s.kept[2*i]
			}
			s.kept = s.kept[:samplerCap/2]
			s.stride *= 2
		}
		if s.n%s.stride == 0 {
			s.kept = append(s.kept, d)
		}
	}
	s.n++
}

// closedLoop runs the given number of clients for dur, or until limit cycles
// have started when limit > 0; client c owns the users at positions ≡ c (mod
// clients) of perm, so no two clients ever touch the same user and no
// request can collide on a 409. A cycle is bid → cancel, with a GET of the
// assignment in between when read is set.
func closedLoop(d *driver, perm []int, clients int, dur time.Duration, limit int64, read bool) *closedResult {
	res := &closedResult{clients: clients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var started, completed atomic.Int64
	start := time.Now()
	cpu0 := cpuTime()
	deadline := start.Add(dur)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if limit > 0 || dur < 600*time.Millisecond {
			return
		}
		tick := time.NewTicker(dur / phaseSlices)
		defer tick.Stop()
		last, lastT := int64(0), start
		for {
			select {
			case <-stopSampler:
				return
			case now := <-tick.C:
				n := completed.Load()
				res.slices = append(res.slices, float64(n-last)/seconds(now.Sub(lastT)))
				last, lastT = n, now
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := newSampler()
			var cycles, failed int64
			for i := c; time.Now().Before(deadline); i += clients {
				if limit > 0 && started.Add(1) > limit {
					break
				}
				if i >= len(perm) {
					i = c
				}
				u := perm[i]
				t0 := time.Now()
				code := d.bid(u, i)
				lat.add(time.Since(t0))
				if code != http.StatusOK {
					failed++
					continue
				}
				if read && d.assignment(u).Code != http.StatusOK {
					failed++
				}
				if d.cancel(u) != http.StatusOK {
					failed++
				}
				cycles++
				completed.Add(1)
			}
			mu.Lock()
			res.cycles += cycles
			res.failed += failed
			res.bids += int64(lat.n)
			res.lat = append(res.lat, lat.kept)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	close(stopSampler)
	<-samplerDone
	return res
}

// --- final arrangement ------------------------------------------------------------

// fill has every user bid once, in perm order from clusterClients clients,
// and keeps the seats: the state the final-arrangement checks read back.
func fill(d *driver, perm []int) (failed int64) {
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clusterClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(perm); i += clusterClients {
				if d.bid(perm[i], i) != http.StatusOK {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return bad.Load()
}

// readArrangement rebuilds the served arrangement from the public read
// endpoints alone: one /v1/assignment per user, then /v1/load.
func readArrangement(d *driver, in *model.Instance) (*model.Arrangement, []int, error) {
	arr := model.NewArrangement(in.NumUsers())
	for u := range arr.Sets {
		var a struct {
			Events []int `json:"events"`
		}
		rec := d.assignment(u)
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("assignment of user %d: HTTP %d", u, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			return nil, nil, err
		}
		arr.Sets[u] = a.Events
	}
	var rows []struct {
		Event, Load, Capacity int
	}
	if err := getJSON(d.h, "/v1/load", &rows); err != nil {
		return nil, nil, err
	}
	loads := make([]int, in.NumEvents())
	for _, row := range rows {
		if row.Event < 0 || row.Event >= len(loads) {
			return nil, nil, fmt.Errorf("/v1/load names unknown event %d", row.Event)
		}
		loads[row.Event] = row.Load
	}
	return arr, loads, nil
}

// checkServed is the serving correctness gate: the arrangement read back
// over the API is feasible and agrees with the seat counts the server
// reports. It returns the arrangement's utility.
func checkServed(r *report, d *driver, in *model.Instance) float64 {
	arr, loads, err := readArrangement(d, in)
	if err != nil {
		r.violation("reading the final arrangement: %v", err)
		return 0
	}
	err = model.Validate(in, arr)
	r.check(err == nil, "final arrangement infeasible: %v", err)
	want := arr.Loads(in.NumEvents())
	same := true
	for v := range want {
		same = same && want[v] == loads[v]
	}
	r.check(same, "/v1/load disagrees with the seats /v1/assignment reports")
	return model.Utility(in, arr)
}

// --- /metrics scrapes ---------------------------------------------------------------

// scrape reads the handlers' /metrics and sums every sample by name across
// labels and handlers (histogram _sum and _count lines included), returning
// the totals and how long the scrapes took.
func scrape(handlers ...http.Handler) (map[string]float64, time.Duration, error) {
	out := map[string]float64{}
	t0 := time.Now()
	for _, h := range handlers {
		rec := do(h, http.MethodGet, "/metrics", nil)
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("GET /metrics: HTTP %d", rec.Code)
		}
		fams, err := obs.ParseFamilies(rec.Body)
		if err != nil {
			return nil, 0, err
		}
		for _, f := range fams {
			for _, s := range f.Samples {
				if s.Label("le") != "" {
					continue // bucket lines: the sums below only want _sum/_count
				}
				if v, err := s.Float(); err == nil {
					out[s.Name] += v
				}
			}
		}
	}
	return out, time.Since(t0), nil
}

// delta is after − before, name by name.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMeanMicros is a histogram's mean observation over a scrape delta, in µs.
func histMeanMicros(d map[string]float64, name string) float64 {
	return 1e6 * ratio(d[name+"_sum"], d[name+"_count"])
}
