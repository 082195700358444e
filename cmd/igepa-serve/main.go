// Command igepa-serve replays an online arrival stream through the sharded
// serving layer (internal/shard) and reports how utility, throughput and
// decision latency behave as the shard count grows — the serving-side
// counterpart of igepa-bench's offline sweeps. With -listen it instead
// hosts the HTTP serving subsystem (internal/server) over the same engine,
// or, with -backends, the router in front of a multi-process cluster
// (internal/router).
//
// Usage:
//
//	igepa-serve                          # Meetup-like stream, S ∈ {1,2,4,8}
//	igepa-serve -shards 1,2,4,8,16 -batch 64
//	igepa-serve -workload synthetic -users 2000 -events 100
//	igepa-serve -guard 0.25              # keep a quarter of each lease for pairs ≥ -tau
//	igepa-serve -arrivals stream.jsonl   # replay a recorded arrival log
//	igepa-serve -live-bound              # incremental LP bound per batch
//	igepa-serve -listen :8080            # host the HTTP front-end
//	igepa-serve -listen :8080 -replay    # deterministic replay dispatcher
//	igepa-serve -listen :8080 -wal serve.wal -checkpoint serve.ckpt
//	igepa-serve -listen :8081 -wal serve.wal -follow   # read replica
//	igepa-serve -listen :9001 -cluster 2 -index 0      # shard 0 of a 2-process cluster
//	igepa-serve -listen :9002 -cluster 2 -index 1      # shard 1
//	igepa-serve -listen :8080 -backends http://127.0.0.1:9001,http://127.0.0.1:9002 [-replay]
//
// With -wal every accepted operation is appended to a write-ahead log
// before its reply and restarts warm-boot by replaying it (from the
// -checkpoint snapshot's offset when one exists); -wal-sync picks the fsync
// policy (always / interval / off). With -follow the process is a read
// replica tailing the leader's -wal: reads only, ready once caught up
// within -lag-bytes, promoted via POST /admin/promote. SIGINT and SIGTERM
// both shut the server down cleanly (server.Run): stop accepting, drain
// every queued decision into the log, checkpoint if configured, then exit —
// a container stop is a clean shutdown, not a crash. See DESIGN.md §9.
//
// With -cluster S the process hosts cluster shard -index of an S-process
// deployment; with -backends it is that deployment's router (DESIGN.md §10):
// the same /v1 API routed to each user's shard by the shared hash, the admin
// surface fanned across the cluster, and the wire lease renewals. The router
// and every shard take the same -workload, -events, -users, -seed and
// -batch. The router waits up to -check-wait for the cluster to assemble and
// refuses a mismatched one.
//
// Each mode — the sweep, a -listen shard, a -backends router — refuses, by
// name, any flag set that it does not read (flagModes lists which flag each
// reads), so a -wal beside the sweep is an error, not a silent no-op. -tau
// without -guard > 0 is refused too: with guard 0 the planner is greedy and
// never reads tau.
//
// The arrival stream is either a timestamped JSONL log written by
// igepa-datagen -arrivals, or the built-in synthetic stream. Every row is
// deterministic given -seed: the same stream, partition and lease schedule
// reproduce bit-identical arrangements on every run and every GOMAXPROCS
// (decision latencies, being wall-clock measurements, vary — the decisions
// do not).
//
// With -live-bound the single-shard baseline run keeps the engine's live LP
// bound (shard.Options.LiveBound): after each batch the engine's incremental
// planner drops the served users and the consumed seats from a shadow
// instance and warm re-solves the benchmark LP. The report shows how the
// remaining-opportunity bound decays, how many re-solves the persistent
// solver served warm (and how many finished fast — delta-priced, zero
// pivots), and the planner-update p50/p99 latency separately from the
// decision tails, so the bound's upkeep cost is visible next to the serving
// numbers. With -listen, -live-bound switches the same tracker on for the
// served engine and /statsz reports the remaining bound plus update latency
// percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/router"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/stats"
	"github.com/ebsn/igepa/internal/wal"
	"github.com/ebsn/igepa/internal/workload"
)

type config struct {
	workload  string
	events    int
	users     int
	seed      int64
	shards    []int
	batch     int
	tau       float64
	guard     float64
	workers   int
	lpBound   bool
	arrivals  string
	liveBound bool

	arrivalsPartial bool

	// -listen mode
	listen     string
	queueDepth int
	replay     bool
	pprof      bool
	slowlog    time.Duration
	cluster    int
	index      int

	// durability (-listen mode)
	wal             string
	walSync         string
	walSyncInterval time.Duration
	checkpoint      string
	follow          bool
	lagBytes        int64

	// router (-listen with -backends)
	backends  []string
	timeout   time.Duration
	retries   int
	checkWait time.Duration

	// set names the flags given on the command line, in lexical order.
	set []string
}

// mode is a set of igepa-serve's run modes.
type mode uint8

const (
	sweep  mode = 1 << iota // the replay sweep (no -listen)
	served                  // a -listen shard, standalone or -cluster
	routed                  // a -listen -backends router
)

// modeNames names each mode in a refusal.
var modeNames = map[mode]string{sweep: "the replay sweep", served: "a -listen shard", routed: "a -backends router"}

// flagModes lists, for every flag, the modes that read it.
var flagModes = map[string]mode{
	"workload": sweep | served | routed, "events": sweep | served | routed,
	"users": sweep | served | routed, "seed": sweep | served | routed, "batch": sweep | served | routed,
	"shards": sweep | served, "tau": sweep | served, "guard": sweep | served,
	"workers": sweep | served, "live-bound": sweep | served,
	"lp": sweep, "arrivals": sweep, "arrivals-partial": sweep,
	"listen": served | routed, "queue": served | routed, "replay": served | routed,
	"cluster": served, "index": served, "pprof": served, "slowlog": served,
	"wal": served, "wal-sync": served, "wal-sync-interval": served,
	"checkpoint": served, "follow": served, "lag-bytes": served,
	"backends": routed, "timeout": routed, "retries": routed, "check-wait": routed,
}

// checkFlags refuses, by name, any flag set on the command line that mode m
// does not read, and -tau without a guard to apply it.
func checkFlags(cfg config, m mode) error {
	for _, name := range cfg.set {
		if flagModes[name]&m == 0 {
			return fmt.Errorf("-%s is not read by %s", name, modeNames[m])
		}
	}
	if slices.Contains(cfg.set, "tau") && cfg.guard == 0 {
		return fmt.Errorf("-tau has no effect without -guard > 0")
	}
	return nil
}

func main() {
	var cfg config
	var shardList, backendList string
	flag.StringVar(&cfg.workload, "workload", "meetup", "arrival workload: meetup or synthetic")
	flag.IntVar(&cfg.events, "events", 80, "number of events (0 = workload default)")
	flag.IntVar(&cfg.users, "users", 600, "number of users / arrivals (0 = workload default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for instance, arrival order and shard partition")
	flag.StringVar(&shardList, "shards", "1,2,4,8", "comma-separated shard counts to sweep")
	flag.IntVar(&cfg.batch, "batch", 0, "arrivals between lease renewals (0 = default)")
	flag.Float64Var(&cfg.tau, "tau", 0.5, "reservation rule: pairs of at least this weight may take reserved seats")
	flag.Float64Var(&cfg.guard, "guard", 0, "reservation rule: fraction of each lease reserved for pairs ≥ -tau (0 = greedy)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool bound (0 = all cores; results identical)")
	flag.BoolVar(&cfg.lpBound, "lp", true, "also solve the offline LP bound for comparison")
	flag.StringVar(&cfg.arrivals, "arrivals", "", "replay arrivals from this JSONL log (igepa-datagen -arrivals)")
	flag.BoolVar(&cfg.liveBound, "live-bound", false, "track the incremental LP bound across batches (warm re-solves)")
	flag.StringVar(&cfg.listen, "listen", "", "host the HTTP serving layer on this address instead of the replay sweep")
	flag.IntVar(&cfg.cluster, "cluster", 0, "listen: host one shard of an S-process cluster (0 = standalone)")
	flag.IntVar(&cfg.index, "index", 0, "listen: this process's shard index within the -cluster")
	flag.IntVar(&cfg.queueDepth, "queue", 0, "listen: bounded queue depth (0 = default)")
	flag.BoolVar(&cfg.replay, "replay", false, "listen: deterministic replay dispatcher (batch-by-count, no deadlines)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "listen: expose net/http/pprof handlers under /debug/pprof/")
	flag.DurationVar(&cfg.slowlog, "slowlog", 0, "listen: log arrivals and renewal rounds slower than this to stderr (0 = off)")
	flag.BoolVar(&cfg.arrivalsPartial, "arrivals-partial", false, "tolerate a truncated arrival log: replay the valid prefix and warn")
	flag.StringVar(&cfg.wal, "wal", "", "listen: write-ahead log path (crash-safe serving + warm boot)")
	flag.StringVar(&cfg.walSync, "wal-sync", "interval", "listen: WAL fsync policy: always, interval or off")
	flag.DurationVar(&cfg.walSyncInterval, "wal-sync-interval", 0, "listen: background fsync period under -wal-sync interval (0 = default)")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "listen: checkpoint file (atomic snapshot bounding WAL replay; written on shutdown and POST /admin/checkpoint)")
	flag.BoolVar(&cfg.follow, "follow", false, "listen: run as a read replica tailing -wal (promote via POST /admin/promote)")
	flag.Int64Var(&cfg.lagBytes, "lag-bytes", 0, "listen: follower readiness bound in bytes behind the log end (0 = default)")
	flag.StringVar(&backendList, "backends", "", "listen: serve as the router in front of these shard base URLs (comma-separated, in shard-index order)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "backends: per-backend HTTP call timeout (0 = default)")
	flag.IntVar(&cfg.retries, "retries", 0, "backends: transport-error retries per backend call (0 = default)")
	flag.DurationVar(&cfg.checkWait, "check-wait", 30*time.Second, "backends: how long to wait for the shards to come up")
	flag.Parse()

	flag.Visit(func(f *flag.Flag) { cfg.set = append(cfg.set, f.Name) })
	for _, tok := range strings.Split(backendList, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			cfg.backends = append(cfg.backends, tok)
		}
	}
	var err error
	cfg.shards, err = parseShards(shardList)
	if err == nil {
		if cfg.listen != "" {
			if !slices.Contains(cfg.set, "shards") {
				// the sweep default "1,2,4,8" is a shard-count list; a
				// server is one configuration, so default to a single shard
				cfg.shards = []int{1}
			}
			err = listenAndServe(os.Stdout, cfg)
		} else {
			err = run(os.Stdout, cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "igepa-serve:", err)
		os.Exit(1)
	}
}

// listenAndServe hosts the HTTP serving subsystem until SIGINT or SIGTERM
// (containers send SIGTERM; both take the same drain path).
func listenAndServe(w *os.File, cfg config) error {
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveListenerCtx(ctx, w, ln, cfg)
}

// serveListenerCtx is the -listen engine room. When ctx fires (SIGINT or
// SIGTERM) server.Run stops accepting and finishes in-flight requests; then
// every queued decision drains — with a WAL, into the log — and a leader
// writes a final checkpoint if one is configured before Close. Invalid
// -cluster combinations (-shards ≠ 1, -index out of range, -live-bound,
// -replay) are the engine's and server's typed errors. With -backends it
// hosts the router instead (serveRouter).
func serveListenerCtx(ctx context.Context, w *os.File, ln net.Listener, cfg config) error {
	if len(cfg.backends) > 0 {
		return serveRouter(ctx, w, ln, cfg)
	}
	if err := checkFlags(cfg, served); err != nil {
		return err
	}
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	sync, err := wal.ParseSyncPolicy(cfg.walSync)
	if err != nil {
		return err
	}
	if len(cfg.shards) != 1 {
		return fmt.Errorf("-listen hosts one server: pass a single -shards value (default 1), got %v", cfg.shards)
	}
	s := cfg.shards[0]
	srv, err := server.New(in, server.Config{
		Shard: shard.Options{
			Shards: s, ClusterShards: cfg.cluster, ClusterIndex: cfg.index,
			Batch: cfg.batch, Workers: cfg.workers, Seed: cfg.seed,
			Tau: cfg.tau, Guard: cfg.guard, LiveBound: cfg.liveBound,
		},
		Replay:          cfg.replay,
		QueueDepth:      cfg.queueDepth,
		WALPath:         cfg.wal,
		WALSync:         sync,
		WALSyncInterval: cfg.walSyncInterval,
		CheckpointPath:  cfg.checkpoint,
		Follow:          cfg.follow,
		LagBytes:        cfg.lagBytes,
		SlowLog:         cfg.slowlog,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	mode := "live"
	if cfg.replay {
		mode = "replay"
	}
	role := ""
	if cfg.follow {
		role = " as read follower"
	}
	shape := fmt.Sprintf("S=%d", s)
	if cfg.cluster > 0 {
		shape = fmt.Sprintf("shard %d/%d", cfg.index, cfg.cluster)
	}
	fmt.Fprintf(w, "igepa-serve: %s mode on %s%s — |V|=%d |U|=%d %s (POST /v1/bid, /v1/cancel; GET /v1/assignment, /v1/load, /healthz, /readyz, /statsz, /metrics)\n",
		mode, ln.Addr(), role, in.NumEvents(), in.NumUsers(), shape)
	return server.Run(ctx, ln, withPprof(srv, cfg.pprof), func() {
		fmt.Fprintf(w, "igepa-serve: shutting down, draining\n")
		if !srv.Drain(server.ShutdownGrace) {
			fmt.Fprintln(os.Stderr, "igepa-serve: drain timed out; closing anyway")
		}
		if cfg.checkpoint != "" && !cfg.follow {
			if err := srv.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "igepa-serve: checkpoint on shutdown:", err)
			}
		}
	})
}

// serveRouter hosts the router in front of the -backends cluster. It
// refuses any flag a router does not read, naming it, then waits up to
// -check-wait for every backend to report the expected shard of the same
// instance. On shutdown Close flushes the replay queue's tail into the
// backends, renewal included, before it returns.
func serveRouter(ctx context.Context, w *os.File, ln net.Listener, cfg config) error {
	if err := checkFlags(cfg, routed); err != nil {
		return err
	}
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	rt, err := router.New(in, router.Config{
		Backends:   cfg.backends,
		Shard:      shard.Options{Shards: len(cfg.backends), Batch: cfg.batch, Seed: cfg.seed},
		Replay:     cfg.replay,
		Timeout:    cfg.timeout,
		Retries:    cfg.retries,
		QueueDepth: cfg.queueDepth,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	// The backends may still be booting; keep probing until the cluster
	// assembles (shape mismatches are permanent and fail immediately after
	// the wait window).
	deadline := time.Now().Add(cfg.checkWait)
	for {
		err = rt.CheckBackends()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster never assembled: %w", err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(200 * time.Millisecond):
		}
	}
	mode := "live"
	if cfg.replay {
		mode = "replay"
	}
	fmt.Fprintf(w, "igepa-serve: router in %s mode on %s — |V|=%d |U|=%d S=%d backends=%s (/metrics; /cluster/metrics fans in every shard)\n",
		mode, ln.Addr(), in.NumEvents(), in.NumUsers(), len(cfg.backends), strings.Join(cfg.backends, ","))
	return server.Run(ctx, ln, rt, func() {
		fmt.Fprintf(w, "igepa-serve: shutting down, flushing the router's queue\n")
		rt.Close()
	})
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in front
// of the serving handler when enabled. Registered explicitly on a private
// mux (not the import side effect on http.DefaultServeMux) so profiling is
// opt-in per process and never leaks onto other servers in tests.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.Handle("/", h)
	return mux
}

func parseShards(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || s < 1 {
			return nil, fmt.Errorf("bad shard count %q", tok)
		}
		out = append(out, s)
	}
	return out, nil
}

func run(w *os.File, cfg config) error {
	if err := checkFlags(cfg, sweep); err != nil {
		return err
	}
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	order, err := makeOrder(cfg, in.NumUsers())
	if err != nil {
		return err
	}

	optFor := func(s int) shard.Options {
		return shard.Options{
			Shards: s, Batch: cfg.batch, Workers: cfg.workers, Seed: cfg.seed,
			Tau: cfg.tau, Guard: cfg.guard, RecordLatency: true,
		}
	}
	// The vs-single baseline is always a real S=1 run, whatever -shards says;
	// it also carries the live bound, which leaves decisions unchanged. It
	// runs first, so an invalid -tau or -guard fails before the LP solve.
	baseOpt := optFor(1)
	baseOpt.LiveBound = cfg.liveBound
	base, err := shard.Serve(in, order, baseOpt)
	if err != nil {
		return err
	}
	single := base.Utility

	bound := 0.0
	if cfg.lpBound {
		res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: cfg.seed, Workers: cfg.workers})
		if err != nil {
			return fmt.Errorf("offline LP bound: %w", err)
		}
		bound = res.LPObjective
	}

	fmt.Fprintf(w, "workload=%s |V|=%d |U|=%d arrivals=%d tau=%g guard=%g seed=%d\n",
		cfg.workload, in.NumEvents(), in.NumUsers(), len(order), cfg.tau, cfg.guard, cfg.seed)
	if cfg.lpBound {
		fmt.Fprintf(w, "offline LP bound: %.4f\n", bound)
	}
	fmt.Fprintf(w, "%8s %12s %10s %10s %8s %8s %10s %12s %10s %10s\n",
		"shards", "utility", "vs-single", "vs-bound", "pairs", "moved", "elapsed", "arrivals/s", "p50", "p99")

	for _, s := range cfg.shards {
		start := time.Now()
		res, err := shard.Serve(in, order, optFor(s))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if err := igepa.Validate(in, res.Arrangement); err != nil {
			return fmt.Errorf("S=%d produced infeasible arrangement: %w", s, err)
		}
		vsSingle, vsBound := "-", "-"
		if single > 0 {
			vsSingle = fmt.Sprintf("%.1f%%", 100*res.Utility/single)
		}
		if bound > 0 {
			vsBound = fmt.Sprintf("%.1f%%", 100*res.Utility/bound)
		}
		rate := float64(len(order)) / elapsed.Seconds()
		p50, p99 := latencyPercentiles(res.Latencies, order)
		fmt.Fprintf(w, "%8d %12.4f %10s %10s %8d %8d %10s %12.0f %10s %10s\n",
			s, res.Utility, vsSingle, vsBound,
			res.Arrangement.Size(), res.MovedSeats,
			elapsed.Round(time.Millisecond), rate,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}

	if cfg.liveBound {
		if err := liveBound(w, in, order, base); err != nil {
			return fmt.Errorf("live bound: %w", err)
		}
	}
	return nil
}

// durationPercentiles returns (p50, p99) of the samples.
func durationPercentiles(samples []time.Duration) (p50, p99 time.Duration) {
	ps := stats.DurationPercentiles(samples, 0.50, 0.99)
	return ps[0], ps[1]
}

// latencyPercentiles extracts the served users' decision latencies and
// returns (p50, p99).
func latencyPercentiles(lat []time.Duration, order []int) (p50, p99 time.Duration) {
	if len(lat) == 0 || len(order) == 0 {
		return 0, 0
	}
	samples := make([]time.Duration, 0, len(order))
	for _, u := range order {
		samples = append(samples, lat[u])
	}
	return durationPercentiles(samples)
}

// liveBound prints the served run's live LP bound after each batch: the
// committed utility plus the remaining LP optimum is a live upper bound on
// the best total utility still reachable — the serving-time counterpart of
// Lemma 1's offline bound.
func liveBound(w *os.File, in *igepa.Instance, order []int, served *shard.Result) error {
	b := served.Bound
	if b.Errors > 0 {
		return fmt.Errorf("%d of %d planner updates failed", b.Errors, b.Errors+b.Updates)
	}
	fmt.Fprintf(w, "\nlive bound (batch=%d): committed + remaining LP after each batch\n", served.Batch)
	fmt.Fprintf(w, "%8s %8s %12s %14s %12s %10s\n", "epoch", "served", "committed", "remaining-LP", "total-bound", "update")
	// One update per batch, of which the tracker keeps only the most recent:
	// Trace[i] follows epoch first+i+1.
	first := served.Epochs - len(b.Trace)
	committedArr := igepa.Arrangement{Sets: make([][]int, in.NumUsers())}
	for epoch := 1; epoch <= served.Epochs; epoch++ {
		end := min(epoch*served.Batch, len(order))
		for _, u := range order[(epoch-1)*served.Batch : end] {
			committedArr.Sets[u] = served.Arrangement.Sets[u]
		}
		if epoch <= first {
			continue
		}
		committed := igepa.Utility(in, &committedArr)
		remaining := b.Trace[epoch-first-1]
		fmt.Fprintf(w, "%8d %8d %12.4f %14.4f %12.4f %10s\n",
			epoch, end, committed, remaining, committed+remaining,
			b.UpdateLatencies[epoch-first-1].Round(time.Microsecond))
	}
	st := b.Solver
	fmt.Fprintf(w, "incremental solver: %d warm re-solves (%d fast-finished), %d cold (fallbacks: %d singular, %d infeasible), %d warm pivots\n",
		st.WarmSolves, st.FastFinishes, st.ColdSolves, st.FallbackSingular, st.FallbackInfeasible, st.WarmPivots)
	up50, up99 := durationPercentiles(b.UpdateLatencies)
	fmt.Fprintf(w, "planner update latency: p50 %s p99 %s (decision latency tails are in the sweep table above)\n",
		up50.Round(time.Microsecond), up99.Round(time.Microsecond))
	return nil
}

// makeOrder reads the arrival order from the JSONL log, or takes it from
// the deterministic synthetic stream (every user once, in a seeded order
// that does not depend on the stream's rate).
func makeOrder(cfg config, numUsers int) ([]int, error) {
	if cfg.arrivals == "" {
		return workload.ArrivalOrder(workload.SyntheticArrivals(cfg.seed, numUsers, 0)), nil
	}
	f, err := os.Open(cfg.arrivals)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var arr []workload.Arrival
	if cfg.arrivalsPartial {
		// A crashed or mid-write producer leaves a truncated final line;
		// salvage the valid prefix and say where the damage starts instead
		// of rejecting the whole log.
		var off int64
		var perr error
		arr, off, perr = workload.ReadArrivalsPartial(f)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "igepa-serve: arrival log damaged at offset %d, replaying the %d-arrival prefix (%v)\n",
				off, len(arr), perr)
		}
	} else {
		arr, err = workload.ReadArrivals(f)
		if err != nil {
			return nil, err
		}
	}
	for i, a := range arr {
		if a.User >= numUsers {
			return nil, fmt.Errorf("arrival %d: user %d outside instance (|U| = %d)", i, a.User, numUsers)
		}
	}
	return workload.ArrivalOrder(arr), nil
}

func makeInstance(cfg config) (*igepa.Instance, error) {
	switch cfg.workload {
	case "meetup":
		return igepa.Meetup(igepa.MeetupConfig{
			Seed: cfg.seed, NumEvents: cfg.events, NumUsers: cfg.users,
		})
	case "synthetic":
		return igepa.Synthetic(igepa.SyntheticConfig{
			Seed: cfg.seed, NumEvents: cfg.events, NumUsers: cfg.users,
		})
	default:
		return nil, fmt.Errorf("unknown workload %q (want meetup or synthetic)", cfg.workload)
	}
}
