// Command igepa-router fronts a cluster of `igepa-serve -listen -cluster S
// -index i` processes: it speaks the same /v1 API as igepa-serve -listen,
// routes each request to the shard owning the user, fans the admin surface
// (/v1/load, /statsz, /readyz, /admin/drain) across the cluster, and drives
// the two-phase wire lease renewals through a shard.Coordinator (see
// DESIGN.md §10).
//
// Usage:
//
//	igepa-serve -listen :9001 -cluster 2 -index 0 -seed 42 &
//	igepa-serve -listen :9002 -cluster 2 -index 1 -seed 42 &
//	igepa-router -listen :8080 -backends http://127.0.0.1:9001,http://127.0.0.1:9002 -seed 42
//	igepa-router -listen :8080 -backends ...,... -replay     # deterministic dispatcher
//
// The router and every backend must be configured with the same -workload,
// -events, -users, -seed and -batch; the router checks each backend's
// /healthz at startup (retrying while the cluster assembles) and refuses to
// serve over a mismatched deployment. POST /admin/migrate moves a user range
// between backends at runtime. SIGINT and SIGTERM shut down through
// server.Run, draining the replay queue into the backends first.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/router"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
)

type config struct {
	listen   string
	backends []string

	workload string
	events   int
	users    int
	seed     int64
	batch    int
	lease    string
	replay   bool

	timeout    time.Duration
	retries    int
	queueDepth int
	checkWait  time.Duration
}

func main() {
	var cfg config
	var backendList string
	flag.StringVar(&cfg.listen, "listen", ":8080", "address to serve on")
	flag.StringVar(&backendList, "backends", "", "comma-separated shard base URLs, in shard-index order")
	flag.StringVar(&cfg.workload, "workload", "meetup", "instance workload: meetup or synthetic")
	flag.IntVar(&cfg.events, "events", 80, "number of events (0 = workload default)")
	flag.IntVar(&cfg.users, "users", 600, "number of users (0 = workload default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for instance and user→shard hash (must match the backends)")
	flag.IntVar(&cfg.batch, "batch", 0, "arrivals between lease renewals (0 = default; must match the backends)")
	flag.StringVar(&cfg.lease, "lease", "demand", "lease renewal policy: demand or lp")
	flag.BoolVar(&cfg.replay, "replay", false, "deterministic replay dispatcher (batch-by-count, bit-identical to ServeSharded)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-backend HTTP call timeout (0 = default)")
	flag.IntVar(&cfg.retries, "retries", 0, "transport-error retries per backend call (0 = default)")
	flag.IntVar(&cfg.queueDepth, "queue", 0, "replay: bounded queue depth (0 = default)")
	flag.DurationVar(&cfg.checkWait, "check-wait", 30*time.Second, "how long to wait for the backends to come up")
	flag.Parse()

	for _, tok := range strings.Split(backendList, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			cfg.backends = append(cfg.backends, tok)
		}
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "igepa-router:", err)
		os.Exit(1)
	}
}

func run(w *os.File, cfg config) error {
	if len(cfg.backends) == 0 {
		return fmt.Errorf("no -backends given")
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveListenerCtx(ctx, w, ln, cfg)
}

func serveListenerCtx(ctx context.Context, w *os.File, ln net.Listener, cfg config) error {
	in, err := makeInstance(cfg)
	if err != nil {
		return err
	}
	lease, err := shard.ParseLeasePolicy(cfg.lease)
	if err != nil {
		return err
	}
	rt, err := router.New(in, router.Config{
		Backends: cfg.backends,
		Shard: shard.Options{
			Shards: len(cfg.backends), Batch: cfg.batch, Seed: cfg.seed, Lease: lease,
		},
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
	fmt.Fprintf(w, "igepa-router: %s mode on %s — |V|=%d |U|=%d S=%d backends=%s (/metrics; /cluster/metrics fans in every shard)\n",
		mode, ln.Addr(), in.NumEvents(), in.NumUsers(), len(cfg.backends), strings.Join(cfg.backends, ","))
	return server.Run(ctx, ln, rt, func() {
		fmt.Fprintf(w, "igepa-router: shutting down, draining\n")
		if !rt.Drain(server.ShutdownGrace) {
			fmt.Fprintln(os.Stderr, "igepa-router: drain timed out; closing anyway")
		}
	})
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
