package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	igepa "github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/online"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
)

// serveKind is what differs between the two single-process serving
// workloads: the instance, and with it what one decision costs.
type serveKind struct {
	gen   func(cfg config) (*model.Instance, error)
	rate  float64 // open-loop bids/s of phase A
	tailQ float64 // the quantile of phase A's latencies reported as op_tail_ms
}

// serve_light: Table I synthetic, a decision costs microseconds, so codec,
// queue, micro-batch and lock work dominate.
func serveLight(cfg config, r *report) error {
	return serveWorkload(cfg, r, serveKind{
		gen: func(cfg config) (*model.Instance, error) {
			return igepa.Synthetic(igepa.SyntheticConfig{
				Seed: instanceSeed(cfg, 0), NumUsers: cfg.pick(4000, 400), NumEvents: cfg.pick(200, 40)})
		},
		rate:  float64(cfg.pick(5000, 1500)),
		tailQ: 0.9,
	})
}

// serve_heavy: Meetup, one decision enumerates ~10³ admissible sets, so
// admissible (enumeration and its LRU cache) and online dominate. The tail
// is p75, not p90: the collector marks a 1.4 GB heap for about a tenth of
// phase A, so p90 sits on the edge between the two regimes and read 5.0 to
// 7.4 ms over ten quiet runs where p75 read 2.3 to 2.5.
func serveHeavy(cfg config, r *report) error {
	return serveWorkload(cfg, r, serveKind{
		gen:   func(cfg config) (*model.Instance, error) { return meetup(cfg, 0) },
		rate:  float64(cfg.pick(1500, 500)),
		tailQ: 0.75,
	})
}

// shardOptions is the serving configuration of every serving workload:
// S=4, renewal batch 32, a 4096-entry admissible-set cache per shard.
func shardOptions(cfg config) shard.Options {
	return shard.Options{Shards: 4, Batch: 32, CacheSize: 4096, Seed: cfg.seed}
}

func serverConfig(cfg config, metrics bool) server.Config {
	return server.Config{
		Shard:          shardOptions(cfg),
		FlushInterval:  200 * time.Microsecond,
		MicroBatch:     8,
		DisableMetrics: !metrics,
	}
}

func userPerm(cfg config, n int) []int {
	return rand.New(rand.NewSource(cfg.seed)).Perm(n)
}

func serveWorkload(cfg config, r *report, kind serveKind) error {
	if !cfg.trace {
		return serveRun(cfg, r, kind, 5)
	}
	refOps, err := r.reference(0.25, 1, func(c config, ref *report, reps int) error {
		return serveRun(c, ref, kind, reps)
	})
	if err != nil {
		return err
	}
	if err := serveTraced(cfg, r, kind); err != nil {
		return err
	}
	r.layer("bench.trace_overhead_pct", 100*(ratio(refOps, r.opsPerS)-1))
	return nil
}

// bootServer is the set-up of a serving workload: generate the instance
// and start the server on it.
func bootServer(cfg config, kind serveKind, metrics bool) (*model.Instance, *server.Server, time.Duration, error) {
	g0 := time.Now()
	in, err := kind.gen(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := time.Since(g0)
	srv, err := server.New(in, serverConfig(cfg, metrics))
	return in, srv, gen, err
}

// serveRun is the end-to-end run: phase A, an open loop at the workload's
// rate (latency from due time); phase C, a closed loop of serveClients
// clients (throughput); then every user bids once and the final arrangement is read
// back over the API and checked.
func serveRun(cfg config, r *report, kind serveKind, setupReps int) error {
	var in *model.Instance
	var srv *server.Server
	setup, err := repeatSetup(setupReps, func() error {
		if srv != nil {
			srv.Close()
		}
		var err error
		in, srv, _, err = bootServer(cfg, kind, false)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	r.e2e("setup_s", seconds(setup))

	perm := userPerm(cfg, in.NumUsers())
	d := newDriver(srv, in.NumUsers(), nil, "")
	total := time.Duration(cfg.seconds * float64(time.Second))

	warmUp(r, d, perm, false)
	a := openLoop(d, perm, kind.rate, total*4/10, rand.New(rand.NewSource(cfg.seed+1)))
	fmt.Println("phase A:", a)
	r.op(2*a.sent, a.failed())
	c := closedLoop(d, perm, serveClients, total*6/10, 0, false)
	fmt.Println("phase C:", c)
	r.op(2*c.cycles+c.failed, c.failed)
	if len(a.lat) == 0 || c.cycles == 0 {
		return fmt.Errorf("no request succeeded")
	}

	r.e2e("op_p50_ms", millis(a.quantile(0.5)))
	r.e2e("op_tail_ms", millis(a.quantile(kind.tailQ)))
	r.throughput(c.perSecond())
	r.e2e("utility_ratio", servedUtilityRatio(r, d, in, perm))
	return nil
}

// warmUp has every user bid and cancel once before anything is timed: the
// admissible-set caches fill and the heap reaches its working size, costs a
// long-running server pays once and not per request.
func warmUp(r *report, d *driver, perm []int, read bool) {
	w := closedLoop(d, perm, clusterClients, time.Minute, int64(len(perm)), read)
	r.op(2*w.cycles+w.failed, w.failed)
}

// servedUtilityRatio fills the server (every user bids once and keeps the
// seats), checks the arrangement read back over the API, and returns its
// utility over that of one unsharded online greedy planner on the same
// arrival order: what sharding and leases cost in the paper's own quantity.
func servedUtilityRatio(r *report, d *driver, in *model.Instance, perm []int) float64 {
	failed := fill(d, perm)
	r.op(int64(len(perm)), failed)
	served := checkServed(r, d, in)
	ref, err := igepa.OnlineGreedy(in, perm)
	if err != nil {
		r.violation("reference online run: %v", err)
		return 0
	}
	return ratio(served, model.Utility(in, ref))
}

// serveTraced is the per-layer run of a serving workload: a metrics-on
// server under spans for the handler/queue/decision split, a fresh pair of
// servers with metrics on and off for the cost of metrics, a rate ladder, and
// side passes that drive shard.Engine and online.GreedyPlanner directly.
func serveTraced(cfg config, r *report, kind serveKind) error {
	total := time.Duration(cfg.seconds * float64(time.Second))
	in, srv, gen, err := bootServer(cfg, kind, true)
	if err != nil {
		return err
	}
	defer srv.Close()
	r.layer("workload.generate_s", seconds(gen))
	perm := userPerm(cfg, in.NumUsers())
	traced := newDriver(srv, in.NumUsers(), r.tr, "server.handler")
	rng := rand.New(rand.NewSource(cfg.seed + 1))

	warmUp(r, newDriver(srv, in.NumUsers(), nil, ""), perm, false)
	before, _, err := scrape(srv)
	if err != nil {
		return err
	}
	a := openLoop(traced, perm, kind.rate, total*2/10, rng)
	fmt.Println("traced phase A:", a)
	r.op(2*a.sent, a.failed())
	c := closedLoop(traced, perm, serveClients, total*25/100, 0, false)
	fmt.Println("traced phase C:", c)
	r.op(2*c.cycles+c.failed, c.failed)
	after, scrapeTime, err := scrape(srv)
	if err != nil {
		return err
	}
	r.opsPerS = c.perSecond()
	r.layer("server.cpu_us_per_arrival", ratio(micros(c.cpu), float64(c.cycles)))
	serverLayers(r, delta(before, after), a, srv)
	st := srv.Stats()
	r.layer("admissible.cache_lookups", float64(st.Cache.Hits+st.Cache.Misses))
	r.layer("admissible.cache_hit_ratio", st.Cache.HitRate)
	r.layer("shard.granted_share", ratio(float64(st.Granted), float64(st.Decided)))
	r.layer("obs.scrape_ms", millis(scrapeTime))

	// What the obs registry alone costs the closed loop: two fresh servers,
	// metrics on and off, no spans, each through the same warm-up and loop.
	// (The long-running server above is no fair partner: on Meetup its
	// admissible-set caches are ~1 GB warmer than a fresh server's.)
	srv.Close()
	fresh := func(metrics bool) (*server.Server, *driver, float64, error) {
		_, s, _, err := bootServer(cfg, kind, metrics)
		if err != nil {
			return nil, nil, 0, err
		}
		d := newDriver(s, in.NumUsers(), nil, "")
		warmUp(r, d, perm, false)
		c := closedLoop(d, perm, serveClients, total/10, 0, false)
		r.op(2*c.cycles+c.failed, c.failed)
		return s, d, c.perSecond(), nil
	}
	on, _, onRate, err := fresh(true)
	if err != nil {
		return err
	}
	on.Close()
	off, plain, offRate, err := fresh(false)
	if err != nil {
		return err
	}
	defer off.Close()
	r.layer("obs.overhead_pct", 100*(ratio(offRate, onRate)-1))

	// Rate ladder: the highest of six rates that keeps slo_share ≥ 0.99 with
	// no backlog left growing. Refusals above capacity are the measurement,
	// not failures of the run.
	best := 0.0
	for step := 1; step <= 6; step++ {
		l := openLoop(plain, perm, kind.rate*float64(step), total/20, rng)
		fmt.Println("ladder:", l)
		if l.sloShare() >= 0.99 && !l.growing() && l.rate > best {
			best = l.rate
		}
	}
	r.layer("server.rate_slo", best)

	allocs, bytes := allocsPerCycle(plain, perm, cfg.pick(300, 60))
	r.layer("server.allocs_per_arrival", allocs)
	r.layer("server.bytes_per_arrival", bytes)

	r.layer("shard.self_us", sideShard(cfg, r, in, perm, total/20)-sideOnline(r, in, perm, total/20))
	return nil
}

// serverLayers reports the server's own split of an arrival from a delta of
// its exported histograms, next to the harness's span around ServeHTTP.
func serverLayers(r *report, d map[string]float64, a *openResult, servers ...*server.Server) {
	handler := 1e6 * ratio(r.tr.total("server.handler"), d["igepa_decided_total"])
	totalUS := histMeanMicros(d, "igepa_total_seconds")
	r.layer("server.handler_us", handler)
	r.layer("server.queue_wait_us", histMeanMicros(d, "igepa_queue_wait_seconds"))
	r.layer("server.decision_us", histMeanMicros(d, "igepa_decision_seconds"))
	r.layer("server.total_us", totalUS)
	if handler > 0 {
		r.layer("server.codec_us", handler-totalUS)
	}
	r.layer("server.batch_size_mean", ratio(d["igepa_decided_total"], d["igepa_batches_total"]))
	var rejected int64
	for _, s := range servers {
		rejected += s.Stats().Rejected
	}
	r.layer("server.rejected_429", float64(rejected))
	if a != nil {
		r.layer("server.slo_share", a.sloShare())
		// Tail percentiles do not repeat within a tenth on a 2-core box, so
		// they are reported here, ungated, and only with ≥10 samples beyond.
		if len(a.lat) >= 1000 {
			r.layer("server.bid_p99_ms", millis(quantile(a.lat, 0.99)))
		}
		if len(a.lat) >= 10000 {
			r.layer("server.bid_p999_ms", millis(quantile(a.lat, 0.999)))
		}
		r.layer("bench.gen_late_p99_ms", millis(quantile(a.late, 0.99)))
		if late := quantile(a.late, 0.99); late > 2*time.Millisecond || a.growing() {
			fmt.Printf("WARNING: run invalid as a latency measurement: pacer late p99 %.3f ms (limit 2), backlog growing: %v\n",
				millis(late), a.growing())
		}
	}
}

// allocsPerCycle is the heap cost of one sequential bid→cancel cycle, with
// the harness's own request and recorder allocations measured against a
// handler that does nothing and subtracted.
func allocsPerCycle(d *driver, perm []int, n int) (allocs, bytes float64) {
	measure := func(d *driver) (float64, float64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			u := perm[i%len(perm)]
			d.bid(u, i)
			d.cancel(u)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	nop := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body) // a discard cannot fail
		w.WriteHeader(http.StatusOK)
	})
	baseA, baseB := measure(&driver{h: nop, bodies: d.bodies})
	a, b := measure(d)
	return a - baseA, b - baseB
}

// sideShard drives a shard.Engine of the serving configuration directly,
// on the closed loop's op order (serveClients users holding seats at any
// time, a lease renewal every Batch arrivals). It returns shard.arrive_us.
func sideShard(cfg config, r *report, in *model.Instance, perm []int, dur time.Duration) float64 {
	eng, err := shard.NewEngine(in, shardOptions(cfg))
	if err != nil {
		r.violation("side pass engine: %v", err)
		return 0
	}
	defer eng.Close()
	var arrive, cancel, renew time.Duration
	var arrivals, cancels, renewals int
	held := make([]int, 0, serveClients+1)
	var deadline time.Time
	for i := 0; ; i++ {
		// The first round over the users is warm-up, as in the served runs:
		// it fills the admissible-set caches and is not timed.
		timed := i >= len(perm)
		if i == len(perm) {
			deadline = time.Now().Add(dur)
		}
		if timed && !time.Now().Before(deadline) {
			break
		}
		u := perm[i%len(perm)]
		t0 := time.Now()
		eng.ArriveOn(eng.ShardOf(u), u)
		if timed {
			arrive += time.Since(t0)
			arrivals++
		}
		held = append(held, u)
		if len(held) > serveClients {
			v := held[0]
			held = held[1:]
			t0 = time.Now()
			eng.CancelOn(eng.ShardOf(v), v)
			if timed {
				cancel += time.Since(t0)
				cancels++
			}
		}
		if i%eng.Batch() == eng.Batch()-1 {
			next := make([]int, eng.Batch())
			for k := range next {
				next[k] = perm[(i+1+k)%len(perm)]
			}
			t0 = time.Now()
			_, err := eng.RenewLeases(next)
			if timed {
				renew += time.Since(t0)
				renewals++
			}
			if err != nil {
				r.violation("side pass lease renewal: %v", err)
				return 0
			}
		}
	}
	r.layer("shard.arrive_us", ratio(micros(arrive), float64(arrivals)))
	r.layer("shard.cancel_us", ratio(micros(cancel), float64(cancels)))
	r.layer("shard.renew_ms", ratio(millis(renew), float64(renewals)))
	r.layer("shard.renewals", float64(eng.Renewals()))
	r.layer("shard.moved_seats", float64(eng.MovedSeats()))
	return ratio(micros(arrive), float64(arrivals))
}

// sideOnline drives one online.GreedyPlanner, cache attached, on the same op
// order: the decision alone, without shard bookkeeping. It returns
// online.arrive_us.
func sideOnline(r *report, in *model.Instance, perm []int, dur time.Duration) float64 {
	p := online.NewGreedy(in, 0)
	p.SetCache(admissible.NewCache(4096))
	var arrive time.Duration
	n := 0
	held := make([][]int, 0, serveClients+1)
	var deadline time.Time
	for i := 0; ; i++ {
		timed := i >= len(perm) // first round: warm-up, as in sideShard
		if i == len(perm) {
			deadline = time.Now().Add(dur)
		}
		if timed && !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		events := p.Arrive(perm[i%len(perm)])
		if timed {
			arrive += time.Since(t0)
			n++
		}
		held = append(held, events)
		if len(held) > serveClients {
			p.Release(held[0])
			held = held[1:]
		}
	}
	us := ratio(micros(arrive), float64(n))
	r.layer("online.arrive_us", us)
	return us
}
