// Command igepa-shardd hosts one shard of a distributed serving cluster:
// a single-shard server.Server (internal/server) in cluster mode, owning the
// slice of the instance that shard -index of a -cluster-wide deployment
// would own inside one multi-shard process. A cmd/igepa-router in front
// speaks the public /v1 API, routes each user here by the shared hash, and
// drives this process's lease renewals over the /cluster/* wire protocol
// (see DESIGN.md §10).
//
// Usage:
//
//	igepa-shardd -listen :9001 -index 0 -cluster 4 -seed 42
//	igepa-shardd -listen :9002 -index 1 -cluster 4 -seed 42 \
//	    -wal shard1.wal -checkpoint shard1.ckpt
//
// Every shard of one cluster must be started with identical -workload,
// -events, -users, -seed, -batch and -planner flags (and the router
// with the same): the instance, the user→shard hash and the planner policy
// are what make the cluster's decisions bit-identical to a single
// -cluster-shard process. The router validates the shape via /healthz at
// startup. SIGINT/SIGTERM drain and exit cleanly, exactly like igepa-serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

type config struct {
	listen  string
	index   int
	cluster int

	workload string
	events   int
	users    int
	seed     int64
	batch    int
	planner  string
	tau      float64
	guard    float64
	workers  int
	cache    int

	queueDepth int
	freeze     time.Duration
	pprof      bool
	slowlog    time.Duration

	wal             string
	walSync         string
	walSyncInterval time.Duration
	checkpoint      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", ":9001", "address to serve on")
	flag.IntVar(&cfg.index, "index", 0, "this process's shard index within the cluster")
	flag.IntVar(&cfg.cluster, "cluster", 1, "cluster width S (number of shard processes)")
	flag.StringVar(&cfg.workload, "workload", "meetup", "instance workload: meetup or synthetic")
	flag.IntVar(&cfg.events, "events", 80, "number of events (0 = workload default)")
	flag.IntVar(&cfg.users, "users", 600, "number of users (0 = workload default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for instance and user→shard hash (must match the whole cluster)")
	flag.IntVar(&cfg.batch, "batch", 0, "arrivals between lease renewals (0 = default; must match the router)")
	flag.StringVar(&cfg.planner, "planner", "greedy", "per-shard policy: greedy or threshold")
	flag.Float64Var(&cfg.tau, "tau", 0.5, "threshold planner: admission weight")
	flag.Float64Var(&cfg.guard, "guard", 0.25, "threshold planner: reserved capacity fraction")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool bound (0 = all cores; results identical)")
	flag.IntVar(&cfg.cache, "cache", 0, "deprecated, ignored: the planners no longer cache admissible sets")
	flag.IntVar(&cfg.queueDepth, "queue", 0, "bounded queue depth (0 = default)")
	flag.DurationVar(&cfg.freeze, "freeze-timeout", 0, "wire-renewal freeze watchdog (0 = default)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	flag.DurationVar(&cfg.slowlog, "slowlog", 0, "log arrivals and renewal rounds slower than this to stderr (0 = off)")
	flag.StringVar(&cfg.wal, "wal", "", "write-ahead log path (crash-safe serving + warm boot)")
	flag.StringVar(&cfg.walSync, "wal-sync", "interval", "WAL fsync policy: always, interval or off")
	flag.DurationVar(&cfg.walSyncInterval, "wal-sync-interval", 0, "background fsync period under -wal-sync interval (0 = default)")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "checkpoint file (written on shutdown and POST /admin/checkpoint)")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "igepa-shardd:", err)
		os.Exit(1)
	}
}

const shutdownGrace = 10 * time.Second

func run(w *os.File, cfg config) error {
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveListenerCtx(ctx, w, ln, cfg)
}

// serveListenerCtx hosts the cluster shard on ln until ctx fires, then drains
// and closes — the same clean-shutdown path as igepa-serve.
func serveListenerCtx(ctx context.Context, w *os.File, ln net.Listener, cfg config) error {
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	kind, err := plannerKind(cfg.planner)
	if err != nil {
		return err
	}
	sync := wal.SyncInterval
	if cfg.walSync != "" {
		if sync, err = wal.ParseSyncPolicy(cfg.walSync); err != nil {
			return err
		}
	}
	srv, err := server.New(in, server.Config{
		Shard: shard.Options{
			Shards: 1, ClusterShards: cfg.cluster, ClusterIndex: cfg.index,
			Batch: cfg.batch, Workers: cfg.workers, Seed: cfg.seed,
			Planner: kind, Tau: cfg.tau, Guard: cfg.guard,
			CacheSize: cfg.cache,
		},
		QueueDepth:      cfg.queueDepth,
		FreezeTimeout:   cfg.freeze,
		WALPath:         cfg.wal,
		WALSync:         sync,
		WALSyncInterval: cfg.walSyncInterval,
		CheckpointPath:  cfg.checkpoint,
		SlowLog:         cfg.slowlog,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "igepa-shardd: shard %d/%d on %s — |V|=%d |U|=%d (router drives /cluster/*; /v1 serves owned users)\n",
		cfg.index, cfg.cluster, ln.Addr(), in.NumEvents(), in.NumUsers())
	hs := &http.Server{Handler: withPprof(srv, cfg.pprof)}
	served := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-ctx.Done():
			fmt.Fprintf(w, "igepa-shardd: signal received, draining\n")
			sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			hs.Shutdown(sctx)
			cancel()
			if !srv.Drain(shutdownGrace) {
				fmt.Fprintln(os.Stderr, "igepa-shardd: drain timed out; closing anyway")
			}
			if cfg.checkpoint != "" {
				if err := srv.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "igepa-shardd: checkpoint on shutdown:", err)
				}
			}
		case <-served:
		}
	}()
	err = hs.Serve(ln)
	close(served)
	<-shutdownDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in front
// of the shard handler when enabled (explicit registration on a private mux,
// not the DefaultServeMux import side effect).
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

func plannerKind(name string) (shard.PlannerKind, error) {
	switch name {
	case "greedy":
		return shard.PlannerGreedy, nil
	case "threshold":
		return shard.PlannerThreshold, nil
	default:
		return 0, fmt.Errorf("unknown planner %q (want greedy or threshold)", name)
	}
}
