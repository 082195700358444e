package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	igepa "github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/router"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

const clusterShards = 2

// cluster is the distributed deployment in one process: a router in front of
// two cluster-mode shard servers, each behind its own httptest listener (the
// router reaches them over real loopback connections) with its own WAL and
// checkpoint file.
type cluster struct {
	cfg     config
	dir     string
	metrics bool
	in      *model.Instance
	shards  []*server.Server
	ts      []*httptest.Server
	rt      *router.Router
}

func (c *cluster) shardConfig(si int) server.Config {
	opt := shardOptions(c.cfg)
	opt.Shards, opt.ClusterShards, opt.ClusterIndex = 1, clusterShards, si
	return server.Config{
		Shard:          opt,
		FlushInterval:  200 * time.Microsecond,
		MicroBatch:     8,
		DisableMetrics: !c.metrics,
		WALPath:        filepath.Join(c.dir, "shard"+strconv.Itoa(si)+".wal"),
		WALSync:        wal.SyncInterval,
		CheckpointPath: filepath.Join(c.dir, "shard"+strconv.Itoa(si)+".ckpt"),
	}
}

func clusterInstance(cfg config) (*model.Instance, error) {
	return igepa.Synthetic(igepa.SyntheticConfig{
		Seed: instanceSeed(cfg, 0), NumUsers: cfg.pick(4000, 400), NumEvents: cfg.pick(200, 40)})
}

// bootCluster generates the instance and starts shards and router on a
// fresh directory under the benchmark's output directory.
func bootCluster(cfg config, metrics bool) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "cluster-")
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{cfg: cfg, dir: dir, metrics: metrics}
	g0 := time.Now()
	if c.in, err = clusterInstance(cfg); err != nil {
		c.close()
		return nil, 0, err
	}
	gen := time.Since(g0)
	var urls []string
	for si := 0; si < clusterShards; si++ {
		srv, err := server.New(c.in, c.shardConfig(si))
		if err != nil {
			c.close()
			return nil, 0, err
		}
		ts := httptest.NewServer(srv)
		c.shards, c.ts, urls = append(c.shards, srv), append(c.ts, ts), append(urls, ts.URL)
	}
	ropt := shardOptions(cfg)
	ropt.Shards = clusterShards
	c.rt, err = router.New(c.in, router.Config{Backends: urls, Shard: ropt, DisableMetrics: !metrics})
	if err == nil {
		err = c.rt.CheckBackends()
	}
	if err != nil {
		c.close()
		return nil, 0, err
	}
	return c, gen, nil
}

// quiesce waits out a lease renewal the router may have started on its own
// goroutine after the last bid: Stats takes the renewal lock.
func (c *cluster) quiesce() router.Stats {
	time.Sleep(5 * time.Millisecond)
	return c.rt.Stats()
}

// stop shuts the tiers down front to back and keeps the directory, for the
// warm boots that follow.
func (c *cluster) stop() {
	if c.rt != nil {
		c.quiesce()
		c.rt.Close()
		c.rt = nil
	}
	for _, ts := range c.ts {
		ts.Close()
	}
	for _, srv := range c.shards {
		srv.Close()
	}
	c.ts, c.shards = nil, nil
}

func (c *cluster) close() {
	c.stop()
	_ = os.RemoveAll(c.dir) // scratch under bench/out; a leftover is harmless
}

func (c *cluster) handlers() []http.Handler {
	hs := []http.Handler{c.rt}
	for _, s := range c.shards {
		hs = append(hs, s)
	}
	return hs
}

func clusterDurable(cfg config, r *report) error {
	if !cfg.trace {
		return clusterRun(cfg, r, 5)
	}
	refOps, err := r.reference(0.25, 1, clusterRun)
	if err != nil {
		return err
	}
	if err := clusterRun(cfg, r, 1); err != nil {
		return err
	}
	r.layer("bench.trace_overhead_pct", 100*(ratio(refOps, r.opsPerS)-1))
	return nil
}

// clusterRun drives bid → read → cancel cycles through the router from 32
// closed-loop clients, then checkpoints shard 0, appends a fixed tail of
// cycles plus one bid per user, shuts down and warm-boots shard 0 on its
// checkpoint and WAL, which must serve the assignments it served before.
// The traced run adds spans around the router handler, a pass straight to
// the shards' handlers, scrapes of both tiers and a direct pass on wal.
func clusterRun(cfg config, r *report, setupReps int) error {
	var c *cluster
	var gen time.Duration
	setup, err := repeatSetup(setupReps, func() error {
		if c != nil {
			c.close()
		}
		var err error
		c, gen, err = bootCluster(cfg, cfg.trace)
		return err
	})
	if err != nil {
		return err
	}
	defer c.close()
	r.e2e("setup_s", seconds(setup))
	r.layer("workload.generate_s", seconds(gen))

	in := c.in
	perm := userPerm(cfg, in.NumUsers())
	d := newDriver(c.rt, in.NumUsers(), r.tr, "router.bid")
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := 70 // percent of the time for the measured closed loop
	if cfg.trace {
		share = 40
	}

	warmUp(r, newDriver(c.rt, in.NumUsers(), nil, ""), perm, true)
	var before map[string]float64
	if cfg.trace {
		if before, _, err = scrape(c.handlers()...); err != nil {
			return err
		}
	}
	loop := closedLoop(d, perm, clusterClients, total*time.Duration(share)/100, 0, true)
	fmt.Println("router:", loop)
	r.op(3*loop.cycles+loop.failed, loop.failed)
	if loop.cycles == 0 {
		return fmt.Errorf("no cycle succeeded")
	}
	r.e2e("op_p50_ms", millis(loop.quantile(0.5)))
	r.e2e("op_tail_ms", millis(loop.quantile(0.9)))
	r.throughput(loop.perSecond())

	if cfg.trace {
		c.quiesce()
		after, scrapeTime, err := scrape(c.handlers()...)
		if err != nil {
			return err
		}
		dl := delta(before, after)
		serverLayers(r, dl, nil, c.shards...)
		arrivals := dl["igepa_decided_total"]
		r.layer("obs.scrape_ms", millis(scrapeTime))
		r.layer("server.cpu_us_per_arrival", ratio(micros(loop.cpu), float64(loop.cycles)))
		r.layer("router.bid_us", 1e6*ratio(r.tr.total("router.bid"), float64(loop.bids)))
		r.layer("router.backend_us", histMeanMicros(dl, "igepa_router_backend_seconds"))
		r.layer("router.renew_ms", histMeanMicros(dl, "igepa_router_renew_seconds")/1e3)
		r.layer("router.renew_rounds", dl["igepa_router_renew_rounds_total"])
		r.layer("router.renew_aborts", dl["igepa_router_renew_aborts_total"])
		r.layer("router.backend_errors", dl["igepa_router_backend_errors_total"])
		r.layer("shard.renewals", dl["igepa_router_renew_rounds_total"])
		r.layer("shard.moved_seats", dl["igepa_router_moved_seats_total"])
		r.layer("wal.commit_us", histMeanMicros(dl, "igepa_wal_commit_seconds"))
		r.layer("wal.fsync_ms", histMeanMicros(dl, "igepa_wal_fsync_seconds")/1e3)
		r.layer("wal.fsyncs", dl["igepa_wal_syncs_total"])
		r.layer("wal.records", dl["igepa_wal_appends_total"])
		r.layer("wal.bytes_per_arrival", ratio(dl["igepa_wal_bytes_total"], arrivals))
		var hits, lookups int64
		for _, s := range c.shards {
			cs := s.Stats().Cache
			hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
		}
		r.layer("admissible.cache_lookups", float64(lookups))
		r.layer("admissible.cache_hit_ratio", ratio(float64(hits), float64(lookups)))

		// The same cycles straight to the owning shard's handler: what is
		// left of router.bid_us is the hop.
		direct := newDriver(c.rt, in.NumUsers(), r.tr, "server.handler")
		direct.route = func(u int) http.Handler { return c.shards[shard.ShardOf(cfg.seed, u, clusterShards)] }
		dloop := closedLoop(direct, perm, clusterClients, total*15/100, 0, true)
		fmt.Println("direct:", dloop)
		r.op(3*dloop.cycles+dloop.failed, dloop.failed)
		handler := 1e6 * ratio(r.tr.total("server.handler"), float64(dloop.bids))
		r.layer("server.handler_us", handler)
		r.layer("router.hop_us", 1e6*ratio(r.tr.total("router.bid"), float64(loop.bids))-handler)
		sideWAL(r, c.dir, cfg.pick(20000, 1000))
	}

	// A checkpoint, then a WAL suffix of fixed op count, so that every warm
	// boot replays the same amount of log whatever the closed loop managed.
	c.quiesce()
	if rec := do(c.shards[0], http.MethodPost, "/admin/checkpoint", nil); rec.Code != http.StatusOK {
		r.violation("checkpoint of shard 0: HTTP %d: %s", rec.Code, rec.Body.String())
		return nil
	}
	plain := newDriver(c.rt, in.NumUsers(), nil, "")
	tail := closedLoop(plain, perm, clusterClients, time.Minute, int64(cfg.pick(8000, 400)), true)
	r.op(3*tail.cycles+tail.failed, tail.failed)
	failed := fill(plain, perm)
	r.op(int64(len(perm)), failed)
	utility := checkServed(r, plain, in)
	st := c.quiesce()
	r.check(!st.Degraded, "router degraded: %s", st.DegradedReason)
	ref, err := igepa.OnlineGreedy(in, perm)
	if err != nil {
		r.violation("reference online run: %v", err)
		return nil
	}
	r.e2e("utility_ratio", ratio(utility, model.Utility(in, ref)))

	// Shard 0's own users, as served before shutdown.
	owned := func(u int) bool { return shard.ShardOf(cfg.seed, u, clusterShards) == 0 }
	served := map[int]string{}
	for u := 0; u < in.NumUsers(); u++ {
		if owned(u) {
			served[u] = do(c.shards[0], http.MethodGet, "/v1/assignment?user="+strconv.Itoa(u), nil).Body.String()
		}
	}
	c.stop()

	boots := 1
	if cfg.trace {
		boots = 5
	}
	var recover []time.Duration
	for i := 0; i < boots; i++ {
		settle()
		t0 := time.Now()
		srv, err := server.New(in, c.shardConfig(0))
		if err != nil {
			r.violation("warm boot of shard 0: %v", err)
			return nil
		}
		recover = append(recover, time.Since(t0))
		if i == boots-1 {
			same := true
			for u, want := range served {
				got := do(srv, http.MethodGet, "/v1/assignment?user="+strconv.Itoa(u), nil).Body.String()
				same = same && got == want
			}
			r.check(same, "rebooted shard 0 serves different assignments than before shutdown")
		}
		srv.Close()
	}
	fmt.Printf("warm boot of shard 0: %.3fs (median of %d)\n", seconds(median(recover)), boots)
	r.layer("wal.recover_s", seconds(median(recover)))
	return nil
}

// sideWAL times wal.Writer.Append+Commit directly on n bid records, then
// wal.Open replaying them into a no-op apply.
func sideWAL(r *report, dir string, n int) {
	path := filepath.Join(dir, "side.wal")
	w, _, err := wal.Open(path, 0, wal.Options{Sync: wal.SyncInterval}, nil)
	if err != nil {
		r.violation("side pass WAL: %v", err)
		return
	}
	t0 := time.Now()
	for i := 0; i < n && err == nil; i++ {
		if _, err = w.Append(wal.Op{Kind: wal.OpBid, TMillis: int64(i), User: i}); err == nil {
			err = w.Commit()
		}
	}
	appendTime := time.Since(t0)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.violation("side pass WAL append: %v", err)
		return
	}
	t0 = time.Now()
	w, info, err := wal.Open(path, 0, wal.Options{Sync: wal.SyncOff}, func([]byte) error { return nil })
	replay := time.Since(t0)
	if err != nil {
		r.violation("side pass WAL replay: %v", err)
		return
	}
	_ = w.Close() // nothing was appended
	r.check(info.Records == n, "side pass WAL replayed %d of %d records", info.Records, n)
	r.layer("wal.append_commit_us", micros(appendTime)/float64(n))
	r.layer("wal.replay_us_per_record", micros(replay)/float64(n))
}
