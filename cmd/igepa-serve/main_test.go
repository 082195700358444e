package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/workload"
)

// serveListener runs the HTTP server on an existing listener until the
// listener closes.
func serveListener(w *os.File, ln net.Listener, cfg config) error {
	return serveListenerCtx(context.Background(), w, ln, cfg)
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { null.Close() })
	return null
}

func TestRunSmoke(t *testing.T) {
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 20, users: 80, seed: 1,
		shards: []int{1, 2, 4}, lpBound: true,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.workload = "meetup"
	cfg.guard = 0.25
	cfg.lpBound = false
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunLeasePoliciesAndLiveBound(t *testing.T) {
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 15, users: 90, seed: 2,
		shards: []int{2, 4}, batch: 16,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
	// the incremental live-bound path (warm Planner.Update per batch)
	cfg = config{
		workload: "synthetic", events: 15, users: 90, seed: 3,
		shards: []int{2}, batch: 16, liveBound: true,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplaysArrivalLog(t *testing.T) {
	null := devNull(t)
	dir := t.TempDir()
	log := filepath.Join(dir, "arrivals.jsonl")
	arr := workload.SyntheticArrivals(9, 70, 500)
	f, err := os.Create(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteArrivals(f, arr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg := config{
		workload: "synthetic", events: 15, users: 70, seed: 9,
		shards: []int{1, 4}, arrivals: log,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
	// a log naming users outside the instance must be rejected
	cfg.users = 50
	if err := run(null, cfg); err == nil {
		t.Error("arrival log with out-of-range users accepted")
	}
	cfg.users = 70
	cfg.arrivals = filepath.Join(dir, "missing.jsonl")
	if err := run(null, cfg); err == nil {
		t.Error("missing arrival log accepted")
	}
}

func TestParseShards(t *testing.T) {
	got, err := parseShards("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseShards: got %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "x", "1,,2", "-3"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	null := devNull(t)
	if err := run(null, config{workload: "nope", shards: []int{1}}); err == nil {
		t.Error("unknown workload accepted")
	}
	var ce *shard.ConfigError
	if err := run(null, config{workload: "synthetic", users: 10, events: 5, guard: math.NaN(), shards: []int{1}}); !errors.As(err, &ce) || ce.Field != "Guard" {
		t.Errorf("NaN guard: got %v, want a *shard.ConfigError on Guard", err)
	}
}

// TestListenServesHTTP boots the -listen mode on a loopback listener and
// exercises the serving endpoints end to end through the command path.
func TestListenServesHTTP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 12, users: 50, seed: 6,
		shards: []int{2},
	}
	done := make(chan error, 1)
	go func() { done <- serveListener(null, ln, cfg) }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		NumUsers int    `json:"num_users"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" || health.NumUsers != 50 {
		t.Fatalf("healthz: %+v", health)
	}

	resp, err = client.Post(base+"/v1/bid", "application/json", strings.NewReader(`{"user":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var bid struct {
		User   int   `json:"user"`
		Events []int `json:"events"`
	}
	json.NewDecoder(resp.Body).Decode(&bid)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bid.User != 3 {
		t.Fatalf("bid: %d %+v", resp.StatusCode, bid)
	}

	resp, err = client.Get(fmt.Sprintf("%s/statsz", base))
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Decided int64 `json:"decided"`
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Decided != 1 {
		t.Fatalf("statsz decided = %d, want 1", stats.Decided)
	}

	ln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveListener: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveListener did not exit after listener close")
	}
}

func postJSON(t *testing.T, hc *http.Client, url string, body, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := hc.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestListenServesClusterShard boots -listen -cluster 2 -index 0 on a
// loopback listener and exercises the ownership gate and the wire renewal
// surface end to end, then shuts down cleanly on cancel.
func TestListenServesClusterShard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload: "synthetic", events: 12, users: 60, seed: 6,
		shards: []int{1}, cluster: 2, index: 0, batch: 16,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListenerCtx(ctx, devNull(t), ln, cfg) }()

	base := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 5 * time.Second}

	var health struct {
		Status  string `json:"status"`
		Cluster *struct {
			Shards int `json:"shards"`
			Index  int `json:"index"`
		} `json:"cluster"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if health.Status != "ok" || health.Cluster == nil || health.Cluster.Shards != 2 || health.Cluster.Index != 0 {
		t.Fatalf("healthz: %+v", health)
	}

	// ownership gate straight through the command config
	owned, foreign := -1, -1
	for u := 0; u < cfg.users; u++ {
		if shard.ShardOf(cfg.seed, u, cfg.cluster) == cfg.index {
			if owned < 0 {
				owned = u
			}
		} else if foreign < 0 {
			foreign = u
		}
	}
	if code := postJSON(t, hc, base+"/v1/bid", map[string]int{"user": owned}, nil); code != http.StatusOK {
		t.Fatalf("owned bid: %d", code)
	}
	if code := postJSON(t, hc, base+"/v1/bid", map[string]int{"user": foreign}, nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign bid: %d, want 421", code)
	}

	// one wire renewal round
	var d struct {
		Loads []int `json:"loads"`
	}
	if code := postJSON(t, hc, base+"/cluster/demand", struct{}{}, &d); code != http.StatusOK {
		t.Fatalf("demand: %d", code)
	}
	if len(d.Loads) != cfg.events {
		t.Fatalf("demand loads: %d, want %d", len(d.Loads), cfg.events)
	}
	var lr struct {
		Renewals int `json:"renewals"`
	}
	if code := postJSON(t, hc, base+"/cluster/lease", map[string]any{"budget": d.Loads}, &lr); code != http.StatusOK {
		t.Fatalf("lease: %d", code)
	}
	if lr.Renewals != 1 {
		t.Fatalf("renewals: %d", lr.Renewals)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestListenBadConfigRejected pins -listen flag validation through the
// command path. The -cluster, Guard and Tau rows are the engine's and
// server's own typed errors. The rest are the command's one check: each mode
// refuses, by name, any flag set that it does not read — a router a shard's
// flag, a shard the router's or the sweep's — and -tau without -guard.
func TestListenBadConfigRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ok := config{workload: "synthetic", events: 8, users: 20, shards: []int{1}, cluster: 2}
	backends := func(set ...string) func(*config) {
		return func(c *config) {
			c.backends = []string{"http://127.0.0.1:1"}
			c.set = append([]string{"backends", "listen"}, set...)
		}
	}
	for _, tc := range []struct {
		name  string
		edit  func(*config)
		field string // the *shard.ConfigError field, when the error is one
		flag  string // the flag the error names, when the command refuses one
	}{
		{"workload", func(c *config) { c.workload = "nope" }, "", ""},
		{"guard NaN", func(c *config) { c.guard = math.NaN() }, "Guard", ""},
		{"guard>1", func(c *config) { c.guard = 2 }, "Guard", ""},
		{"tau NaN", func(c *config) { c.tau, c.guard = math.NaN(), 0.25 }, "Tau", ""},
		{"wal-sync", func(c *config) { c.walSync = "nope" }, "", ""},
		{"index", func(c *config) { c.index = 5 }, "ClusterIndex", ""},
		{"cluster+replay", func(c *config) { c.replay = true }, "Replay", ""},
		{"cluster+shards", func(c *config) { c.shards = []int{4} }, "Shards", ""},
		{"cluster+live-bound", func(c *config) { c.liveBound = true }, "LiveBound", ""},
		{"backends+wal", backends("wal"), "", "-wal"},
		{"backends+cluster", backends("cluster"), "", "-cluster"},
		{"shard+timeout", func(c *config) { c.set = []string{"timeout"} }, "", "-timeout"},
		{"shard+lp", func(c *config) { c.set = []string{"lp"} }, "", "-lp"},
		{"shard+arrivals", func(c *config) { c.set = []string{"arrivals"} }, "", "-arrivals"},
		{"shard+arrivals-partial", func(c *config) { c.set = []string{"arrivals-partial"} }, "", "-arrivals-partial"},
		{"tau without guard", func(c *config) { c.set = []string{"tau"} }, "", "-tau"},
	} {
		cfg := ok
		tc.edit(&cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := serveListenerCtx(ctx, devNull(t), ln, cfg)
		cancel()
		var ce *shard.ConfigError
		switch {
		case err == nil:
			t.Errorf("%s: bad config accepted", tc.name)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%s: got %v, want a *shard.ConfigError on %s", tc.name, err, tc.field)
		case tc.flag != "" && !strings.Contains(err.Error(), tc.flag+" "):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.flag)
		}
	}
}

// TestSweepRefusesListenFlags pins the sweep's half of the flag check: a
// flag only -listen reads, such as -wal, is an error naming it rather than
// a silent no-op, and the sweep creates no file.
func TestSweepRefusesListenFlags(t *testing.T) {
	dir := t.TempDir()
	ok := config{workload: "synthetic", events: 8, users: 20, shards: []int{1},
		wal: filepath.Join(dir, "x.wal"), checkpoint: filepath.Join(dir, "x.ckpt")}
	for _, name := range []string{"wal", "checkpoint", "follow", "cluster", "queue", "replay",
		"pprof", "slowlog", "listen", "backends", "timeout", "tau"} {
		cfg := ok
		cfg.set = []string{"seed", name}
		if err := run(devNull(t), cfg); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s: got %v, want an error naming it", name, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("the refused sweep left files behind: %v %v", entries, err)
	}
}

// output returns what write wrote to its file.
func output(t *testing.T, write func(w *os.File) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// liveBoundRows parses the -live-bound table: per row the epoch, served,
// committed, remaining-LP and total-bound columns.
func liveBoundRows(t *testing.T, out string) [][5]float64 {
	t.Helper()
	_, table, ok := strings.Cut(out, "total-bound")
	if !ok {
		t.Fatalf("no live-bound table:\n%s", out)
	}
	var rows [][5]float64
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 6 {
			break
		}
		var row [5]float64
		for c := range row {
			if _, err := fmt.Sscan(f[c], &row[c]); err != nil {
				t.Fatalf("bad live-bound row %q: %v", line, err)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TestLiveBoundReportsUpdateLatency checks the -live-bound report: one row
// per epoch, every row's total bound at least the final utility, nothing
// left for the remaining LP once every user has arrived, and the
// planner-update p50/p99 line and fast-finish counter printed separately
// from the decision-latency table.
func TestLiveBoundReportsUpdateLatency(t *testing.T) {
	const users, batch = 60, 16
	cfg := config{
		workload: "synthetic", events: 12, users: users, seed: 4,
		shards: []int{2}, batch: batch, liveBound: true,
	}
	out := output(t, func(w *os.File) error { return run(w, cfg) })
	for _, want := range []string{
		"planner update latency: p50 ",
		"fast-finished",
		"remaining-LP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live-bound output missing %q:\n%s", want, out)
		}
	}
	rows := liveBoundRows(t, out)
	if want := (users + batch - 1) / batch; len(rows) != want {
		t.Fatalf("%d live-bound rows, want one per epoch (%d):\n%s", len(rows), want, out)
	}
	last := rows[len(rows)-1]
	final := last[2]
	for i, r := range rows {
		if r[0] != float64(i+1) || r[1] != float64(min((i+1)*batch, users)) {
			t.Errorf("row %d: epoch %v served %v", i, r[0], r[1])
		}
		// the columns print to 1e-4, so allow one unit of that rounding
		if r[4] < final-1e-4 {
			t.Errorf("epoch %v: total bound %.4f below the final utility %.4f", r[0], r[4], final)
		}
	}
	if last[3] != 0 {
		t.Errorf("remaining LP %.4f after the last batch, want 0", last[3])
	}
}

// TestLiveBoundAlignsWindowedTrace checks that a trace the tracker has cut
// to its most recent updates is printed against the last epochs.
func TestLiveBoundAlignsWindowedTrace(t *testing.T) {
	in, err := makeInstance(config{workload: "synthetic", events: 12, users: 60, seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	order := workload.ArrivalOrder(workload.SyntheticArrivals(4, in.NumUsers(), 1000))
	res, err := shard.Serve(in, order, shard.Options{Shards: 1, Batch: 16, Seed: 4, LiveBound: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *shard.Result) [][5]float64 {
		return liveBoundRows(t, output(t, func(w *os.File) error { return liveBound(w, in, order, r) }))
	}
	full := rows(res)
	cut := *res.Bound
	cut.Trace = cut.Trace[2:]
	cut.UpdateLatencies = cut.UpdateLatencies[2:]
	windowed := *res
	windowed.Bound = &cut
	got := rows(&windowed)
	if len(full) != 4 || len(got) != 2 || got[0] != full[2] || got[1] != full[3] {
		t.Fatalf("windowed trace printed as %v, want the last two of %v", got, full)
	}
}

// TestListenDurableShutdownAndWarmBoot drives the crash-safety flags through
// the command path: a signal-style shutdown drains into the WAL and writes
// the checkpoint, and the next boot recovers the decisions.
func TestListenDurableShutdownAndWarmBoot(t *testing.T) {
	dir := t.TempDir()
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 12, users: 50, seed: 6,
		shards:     []int{2},
		wal:        filepath.Join(dir, "serve.wal"),
		walSync:    "off",
		checkpoint: filepath.Join(dir, "serve.ckpt"),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListenerCtx(ctx, null, ln, cfg) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	for _, u := range []int{3, 7, 11} {
		resp, err := client.Post(base+"/v1/bid", "application/json",
			strings.NewReader(fmt.Sprintf(`{"user":%d}`, u)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bid user %d: %d", u, resp.StatusCode)
		}
	}

	cancel() // stands in for SIGTERM: same drain path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveListenerCtx: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on signal")
	}
	if _, err := os.Stat(cfg.checkpoint); err != nil {
		t.Fatalf("shutdown wrote no checkpoint: %v", err)
	}

	// Warm boot: the recovered server knows the decisions without replay.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- serveListener(null, ln2, cfg) }()
	base2 := "http://" + ln2.Addr().String()
	resp, err := client.Get(base2 + "/v1/assignment?user=7")
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		Decided bool `json:"decided"`
	}
	json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if !ar.Decided {
		t.Fatal("warm boot lost a decided user")
	}
	ln2.Close()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second serveListener: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second server did not exit")
	}
}

// TestListenFollowerThroughCommand boots a leader and a -follow replica
// through the command path and checks the replica reaches the leader's
// decisions and refuses writes — the acceptance-criteria follower demo.
func TestListenFollowerThroughCommand(t *testing.T) {
	dir := t.TempDir()
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 12, users: 50, seed: 6,
		shards: []int{2},
		wal:    filepath.Join(dir, "serve.wal"), walSync: "off",
	}
	lnL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneL := make(chan error, 1)
	go func() { doneL <- serveListener(null, lnL, cfg) }()

	fcfg := cfg
	fcfg.follow = true
	lnF, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneF := make(chan error, 1)
	go func() { doneF <- serveListener(null, lnF, fcfg) }()

	baseL := "http://" + lnL.Addr().String()
	baseF := "http://" + lnF.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(baseL+"/v1/bid", "application/json", strings.NewReader(`{"user":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader bid: %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(baseF + "/v1/assignment?user=9")
		if err != nil {
			t.Fatal(err)
		}
		var ar struct {
			Decided bool `json:"decided"`
		}
		json.NewDecoder(resp.Body).Decode(&ar)
		resp.Body.Close()
		if ar.Decided {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never reached the leader's decision")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = client.Post(baseF+"/v1/bid", "application/json", strings.NewReader(`{"user":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted a write: %d", resp.StatusCode)
	}

	for _, stop := range []struct {
		ln   net.Listener
		done chan error
	}{{lnL, doneL}, {lnF, doneF}} {
		stop.ln.Close()
		select {
		case err := <-stop.done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server did not exit after listener close")
		}
	}
}

// TestRunTruncatedArrivalLog pins -arrivals-partial: a log cut mid-line is
// rejected by default and salvaged with the flag.
func TestRunTruncatedArrivalLog(t *testing.T) {
	null := devNull(t)
	dir := t.TempDir()
	log := filepath.Join(dir, "arrivals.jsonl")
	arr := workload.SyntheticArrivals(9, 70, 500)
	f, err := os.Create(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteArrivals(f, arr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload: "synthetic", events: 15, users: 70, seed: 9,
		shards: []int{2}, arrivals: log, lpBound: false,
	}
	if err := run(null, cfg); err == nil {
		t.Error("truncated arrival log accepted without -arrivals-partial")
	}
	cfg.arrivalsPartial = true
	if err := run(null, cfg); err != nil {
		t.Fatalf("-arrivals-partial rejected the salvageable log: %v", err)
	}
}
