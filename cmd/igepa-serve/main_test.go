package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
		shards: []int{1, 2, 4}, planner: "greedy", lpBound: true,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.workload = "meetup"
	cfg.planner = "threshold"
	cfg.lpBound = false
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunLeasePoliciesAndLiveBound(t *testing.T) {
	null := devNull(t)
	for _, lease := range []string{"demand", "even", "lp"} {
		cfg := config{
			workload: "synthetic", events: 15, users: 90, seed: 2,
			shards: []int{2, 4}, planner: "greedy", lease: lease, batch: 16,
		}
		if err := run(null, cfg); err != nil {
			t.Fatalf("lease=%s: %v", lease, err)
		}
	}
	// the incremental live-bound path (warm Planner.Update per batch)
	cfg := config{
		workload: "synthetic", events: 15, users: 90, seed: 3,
		shards: []int{2}, planner: "greedy", batch: 16, liveBound: true,
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
		shards: []int{1, 4}, planner: "greedy", arrivals: log,
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
	if err := run(null, config{workload: "synthetic", users: 10, events: 5, planner: "nope", shards: []int{1}}); err == nil {
		t.Error("unknown planner accepted")
	}
	if err := run(null, config{workload: "synthetic", users: 10, events: 5, planner: "greedy", lease: "nope", shards: []int{1}}); err == nil {
		t.Error("unknown lease policy accepted")
	}
}

// TestRunPaced runs the sweep with wall-clock pacing (at a very high
// speed-up so the test stays fast).
func TestRunPaced(t *testing.T) {
	null := devNull(t)
	cfg := config{
		workload: "synthetic", events: 15, users: 80, seed: 4,
		shards: []int{1, 2}, planner: "greedy", batch: 16,
		pace: 1e6, rate: 2000,
	}
	if err := run(null, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestServePacedMatchesServe pins the pacing contract: pacing changes when
// batches dispatch, never what they decide.
func TestServePacedMatchesServe(t *testing.T) {
	cfg := config{workload: "synthetic", events: 15, users: 90, seed: 2}
	in, err := makeInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.SyntheticArrivals(7, in.NumUsers(), 5000)
	order := workload.ArrivalOrder(stream)
	opt := shard.Options{Shards: 4, Batch: 16, Seed: 2, CacheSize: 64}
	want, err := shard.Serve(in, order, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, qdelay, err := servePaced(in, stream, opt, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Arrangement.Equal(got.Arrangement) {
		t.Fatal("paced replay decided differently from Serve")
	}
	if len(qdelay) != len(order) {
		t.Fatalf("%d queueing-delay samples, want %d", len(qdelay), len(order))
	}
	for i, d := range qdelay {
		if d < 0 {
			t.Fatalf("negative queueing delay %v at arrival %d", d, i)
		}
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
		shards: []int{2}, planner: "greedy",
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
		shards: []int{1}, cluster: 2, index: 0, batch: 16, planner: "greedy",
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
// command path. The -cluster rows are the engine's and server's own typed
// errors: the command adds no checks of its own.
func TestListenBadConfigRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ok := config{workload: "synthetic", events: 8, users: 20, shards: []int{1}, cluster: 2, planner: "greedy"}
	for _, tc := range []struct {
		name  string
		edit  func(*config)
		field string // the *shard.ConfigError field, when the error is one
	}{
		{"workload", func(c *config) { c.workload = "nope" }, ""},
		{"planner", func(c *config) { c.planner = "nope" }, ""},
		{"wal-sync", func(c *config) { c.walSync = "nope" }, ""},
		{"index", func(c *config) { c.index = 5 }, "ClusterIndex"},
		{"cluster+replay", func(c *config) { c.replay = true }, "Replay"},
		{"cluster+shards", func(c *config) { c.shards = []int{4} }, "Shards"},
		{"cluster+live-bound", func(c *config) { c.liveBound = true }, "LiveBound"},
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
		}
	}
}

// TestLiveBoundReportsUpdateLatency pins the -live-bound report format: the
// planner-update p50/p99 line and the fast-finish counter are printed
// separately from the decision-latency table.
func TestLiveBoundReportsUpdateLatency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload: "synthetic", events: 12, users: 60, seed: 4,
		shards: []int{2}, planner: "greedy", batch: 16, liveBound: true,
	}
	if err := run(f, cfg); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"planner update latency: p50 ",
		"fast-finished",
		"remaining-LP",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("live-bound output missing %q:\n%s", want, out)
		}
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
		shards: []int{2}, planner: "greedy",
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
		shards: []int{2}, planner: "greedy",
		wal: filepath.Join(dir, "serve.wal"), walSync: "off",
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
		shards: []int{2}, planner: "greedy", arrivals: log, lpBound: false,
	}
	if err := run(null, cfg); err == nil {
		t.Error("truncated arrival log accepted without -arrivals-partial")
	}
	cfg.arrivalsPartial = true
	if err := run(null, cfg); err != nil {
		t.Fatalf("-arrivals-partial rejected the salvageable log: %v", err)
	}
}
