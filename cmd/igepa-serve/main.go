// Command igepa-serve replays an online arrival stream through the sharded
// serving layer (internal/shard) and reports how utility, throughput and
// decision latency behave as the shard count grows — the serving-side
// counterpart of igepa-bench's offline sweeps. With -listen it instead
// hosts the HTTP serving subsystem (internal/server) over the same engine.
//
// Usage:
//
//	igepa-serve                          # Meetup-like stream, S ∈ {1,2,4,8}
//	igepa-serve -shards 1,2,4,8,16 -batch 64
//	igepa-serve -workload synthetic -users 2000 -events 100
//	igepa-serve -planner threshold -tau 0.5 -guard 0.25
//	igepa-serve -lease lp                # warm-started LP lease splits
//	igepa-serve -arrivals stream.jsonl   # replay a recorded arrival log
//	igepa-serve -live-bound              # incremental LP bound per batch
//	igepa-serve -pace 100                # wall-clock replay at 100× speed
//	igepa-serve -listen :8080            # host the HTTP front-end
//	igepa-serve -listen :8080 -replay    # deterministic replay dispatcher
//	igepa-serve -listen :8080 -wal serve.wal -checkpoint serve.ckpt
//	igepa-serve -listen :8081 -wal serve.wal -follow   # read replica
//	igepa-serve -listen :9001 -cluster 2 -index 0      # shard 0 of 2 behind igepa-router
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
// deployment behind cmd/igepa-router, which routes users by the shared hash
// and drives lease renewals over /cluster/* (DESIGN.md §10). Every shard and
// the router take the same -workload, -events, -users, -seed and -batch.
//
// The arrival stream is either a timestamped JSONL log written by
// igepa-datagen -arrivals, or the built-in synthetic stream. Every row is
// deterministic given -seed: the same stream, partition and lease schedule
// reproduce bit-identical arrangements on every run and every GOMAXPROCS
// (decision latencies, being wall-clock measurements, vary — the decisions
// do not).
//
// With -pace the replay honors the log's timestamps: batch k is dispatched
// only once its last arrival's (scaled) timestamp has passed, and the
// report adds the queueing delay — time from a user's arrival to their
// batch's dispatch — on top of the decision latency. Pacing changes when
// decisions happen, never what they are.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ebsn/igepa"
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
	planner   string
	tau       float64
	guard     float64
	workers   int
	lpBound   bool
	lease     string
	arrivals  string
	rate      float64
	liveBound bool
	pace      float64

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
}

func main() {
	var cfg config
	var shardList string
	flag.StringVar(&cfg.workload, "workload", "meetup", "arrival workload: meetup or synthetic")
	flag.IntVar(&cfg.events, "events", 80, "number of events (0 = workload default)")
	flag.IntVar(&cfg.users, "users", 600, "number of users / arrivals (0 = workload default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for instance, arrival order and shard partition")
	flag.StringVar(&shardList, "shards", "1,2,4,8", "comma-separated shard counts to sweep")
	flag.IntVar(&cfg.batch, "batch", 0, "arrivals between lease renewals (0 = default)")
	flag.StringVar(&cfg.planner, "planner", "greedy", "per-shard policy: greedy or threshold")
	flag.Float64Var(&cfg.tau, "tau", 0.5, "threshold planner: admission weight")
	flag.Float64Var(&cfg.guard, "guard", 0.25, "threshold planner: reserved capacity fraction")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool bound (0 = all cores; results identical)")
	flag.BoolVar(&cfg.lpBound, "lp", true, "also solve the offline LP bound for comparison")
	flag.StringVar(&cfg.lease, "lease", "demand", "lease renewal policy: demand or lp")
	flag.StringVar(&cfg.arrivals, "arrivals", "", "replay arrivals from this JSONL log (igepa-datagen -arrivals)")
	flag.Float64Var(&cfg.rate, "rate", 1000, "synthetic stream: mean arrivals per second")
	flag.BoolVar(&cfg.liveBound, "live-bound", false, "track the incremental LP bound across batches (warm re-solves)")
	flag.Float64Var(&cfg.pace, "pace", 0, "wall-clock replay speed-up factor (1 = real time, 0 = as fast as possible)")
	flag.StringVar(&cfg.listen, "listen", "", "host the HTTP serving layer on this address instead of the replay sweep")
	flag.IntVar(&cfg.cluster, "cluster", 0, "listen: host one shard of an S-process cluster behind igepa-router (0 = standalone)")
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
	flag.Parse()

	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})
	var err error
	cfg.shards, err = parseShards(shardList)
	if err == nil {
		if cfg.listen != "" {
			if !shardsSet {
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
// -replay) are the engine's and server's typed errors.
func serveListenerCtx(ctx context.Context, w *os.File, ln net.Listener, cfg config) error {
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	kind, err := shard.ParsePlannerKind(cfg.planner)
	if err != nil {
		return err
	}
	lease, err := shard.ParseLeasePolicy(cfg.lease)
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
			Planner: kind, Tau: cfg.tau, Guard: cfg.guard,
			Lease: lease, LiveBound: cfg.liveBound,
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
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	kind, err := shard.ParsePlannerKind(cfg.planner)
	if err != nil {
		return err
	}
	lease, err := shard.ParseLeasePolicy(cfg.lease)
	if err != nil {
		return err
	}
	stream, err := makeStream(cfg, in.NumUsers())
	if err != nil {
		return err
	}
	order := workload.ArrivalOrder(stream)

	bound := 0.0
	if cfg.lpBound {
		res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: cfg.seed, Workers: cfg.workers})
		if err != nil {
			return fmt.Errorf("offline LP bound: %w", err)
		}
		bound = res.LPObjective
	}

	fmt.Fprintf(w, "workload=%s |V|=%d |U|=%d arrivals=%d planner=%s lease=%s seed=%d\n",
		cfg.workload, in.NumEvents(), in.NumUsers(), len(order), kind, lease, cfg.seed)
	if cfg.lpBound {
		fmt.Fprintf(w, "offline LP bound: %.4f\n", bound)
	}
	fmt.Fprintf(w, "%8s %12s %10s %10s %8s %8s %10s %12s %10s %10s\n",
		"shards", "utility", "vs-single", "vs-bound", "pairs", "moved", "elapsed", "arrivals/s", "p50", "p99")

	optFor := func(s int) shard.Options {
		return shard.Options{
			Shards: s, Batch: cfg.batch, Workers: cfg.workers, Seed: cfg.seed,
			Planner: kind, Tau: cfg.tau, Guard: cfg.guard,
			Lease: lease, RecordLatency: true,
		}
	}
	// The vs-single baseline is always a real S=1 run, whatever -shards says;
	// it also carries the live bound, which leaves decisions unchanged.
	baseOpt := optFor(1)
	baseOpt.LiveBound = cfg.liveBound
	base, err := shard.Serve(in, order, baseOpt)
	if err != nil {
		return err
	}
	single := base.Utility
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

	if cfg.pace > 0 {
		if err := pacedReplay(w, in, stream, cfg, optFor); err != nil {
			return fmt.Errorf("paced replay: %w", err)
		}
	}
	if cfg.liveBound {
		if err := liveBound(w, in, order, base); err != nil {
			return fmt.Errorf("live bound: %w", err)
		}
	}
	return nil
}

// pacedReplay re-runs the sweep honoring the stream's timestamps (scaled by
// the pace factor): batch k dispatches once its last arrival has "arrived".
// Decisions are identical to the unpaced sweep; what pacing adds is the
// queueing delay every arrival spends waiting for its batch to assemble and
// flush — the serving-time cost the throughput table cannot show.
func pacedReplay(w *os.File, in *igepa.Instance, stream []workload.Arrival, cfg config, optFor func(s int) shard.Options) error {
	if len(stream) == 0 {
		fmt.Fprintf(w, "\npaced replay: empty arrival stream, nothing to pace\n")
		return nil
	}
	fmt.Fprintf(w, "\npaced replay at %gx: queueing delay on top of decision latency (stream spans %.1fs)\n",
		cfg.pace, float64(stream[len(stream)-1].TMillis)/1000)
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %10s %12.12s\n",
		"shards", "queue-p50", "queue-p99", "decide-p50", "decide-p99", "total-p99", "utility")
	for _, s := range cfg.shards {
		res, qdelay, err := servePaced(in, stream, optFor(s), cfg.pace)
		if err != nil {
			return err
		}
		order := workload.ArrivalOrder(stream)
		dp50, dp99 := latencyPercentiles(res.Latencies, order)
		qp50, qp99 := durationPercentiles(qdelay)
		// per-arrival totals: summing the two p99s would overstate the tail
		// (queue wait and decision order are anti-correlated in a batch)
		totals := make([]time.Duration, len(order))
		for i, u := range order {
			totals[i] = qdelay[i] + res.Latencies[u]
		}
		_, tp99 := durationPercentiles(totals)
		fmt.Fprintf(w, "%8d %10s %10s %10s %10s %10s %12.4f\n",
			s,
			qp50.Round(time.Microsecond), qp99.Round(time.Microsecond),
			dp50.Round(time.Microsecond), dp99.Round(time.Microsecond),
			tp99.Round(time.Microsecond), res.Utility)
	}
	return nil
}

// servePaced drives the shard engine over the stream with Serve's exact
// batch schedule, but dispatches each batch only once its last arrival's
// scaled timestamp has elapsed. qdelay[i] is arrival i's queueing delay:
// dispatch time minus (scaled) arrival time.
func servePaced(in *igepa.Instance, stream []workload.Arrival, opt shard.Options, pace float64) (*shard.Result, []time.Duration, error) {
	order := workload.ArrivalOrder(stream)
	e, err := shard.NewEngine(in, opt)
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	if err := shard.CheckOrder(in, order); err != nil {
		return nil, nil, err
	}
	scaled := func(tms int64) time.Duration {
		return time.Duration(float64(tms) / pace * float64(time.Millisecond))
	}
	qdelay := make([]time.Duration, len(order))
	b := e.Batch()
	start := time.Now()
	for s0 := 0; s0 < len(order); s0 += b {
		end := min(s0+b, len(order))
		if wait := scaled(stream[end-1].TMillis) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		flushAt := time.Since(start)
		for i := s0; i < end; i++ {
			if d := flushAt - scaled(stream[i].TMillis); d > 0 {
				qdelay[i] = d
			}
		}
		e.DispatchBatch(order[s0:end])
		if end < len(order) && e.Shards() > 1 {
			if _, err := e.RenewLeases(order[end:min(end+b, len(order))]); err != nil {
				return nil, nil, err
			}
		}
	}
	res, err := e.Result()
	return res, qdelay, err
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

// makeStream loads the JSONL arrival log, or generates the deterministic
// synthetic stream (every user once, seeded order, exponential gaps).
func makeStream(cfg config, numUsers int) ([]workload.Arrival, error) {
	if cfg.arrivals == "" {
		return workload.SyntheticArrivals(cfg.seed, numUsers, cfg.rate), nil
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
	return arr, nil
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
