package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
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

// TestShardServesCluster boots the command path on a loopback listener as
// shard 0 of a width-2 cluster and exercises the ownership gate and the
// wire renewal surface end to end.
func TestShardServesCluster(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload: "synthetic", events: 12, users: 60, seed: 6,
		index: 0, cluster: 2, batch: 16, planner: "greedy",
		walSync: "interval",
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
	var owned, foreign int
	for u := 0; u < cfg.users; u++ {
		if shard.ShardOf(cfg.seed, u, cfg.cluster) == cfg.index {
			owned = u
			break
		}
	}
	for u := 0; u < cfg.users; u++ {
		if shard.ShardOf(cfg.seed, u, cfg.cluster) != cfg.index {
			foreign = u
			break
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
		Loads    []int `json:"loads"`
		Renewals int   `json:"renewals"`
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

// TestBadConfigRejected pins the flag validation through the command path.
func TestBadConfigRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for name, cfg := range map[string]config{
		"workload": {workload: "nope", cluster: 2, planner: "greedy", walSync: "interval"},
		"planner":  {workload: "synthetic", events: 8, users: 20, cluster: 2, planner: "nope", walSync: "interval"},
		"wal-sync": {workload: "synthetic", events: 8, users: 20, cluster: 2, planner: "greedy", walSync: "nope"},
		"index":    {workload: "synthetic", events: 8, users: 20, cluster: 2, index: 5, planner: "greedy", walSync: "interval"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := serveListenerCtx(ctx, devNull(t), ln, cfg); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
		cancel()
	}
}
