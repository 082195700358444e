package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/xrand"
)

// freeAddr grabs a loopback port to hand to a child process. The tiny
// close-to-bind race is acceptable in a test.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// tryPostJSON posts body as JSON and decodes a 2xx reply into out,
// returning the status and any transport or decode error.
func tryPostJSON(hc *http.Client, url string, body, out any) (int, error) {
	raw, _ := json.Marshal(body)
	resp, err := hc.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// tryGetJSON is tryPostJSON's GET.
func tryGetJSON(hc *http.Client, url string, out any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// TestMultiProcessClusterSmoke is the deployment-shaped acceptance test: it
// builds the real igepa-serve binary, boots a cluster of separate OS
// processes from it (2 `igepa-serve -listen -cluster 2 -index i` shards and
// one `igepa-serve -listen -backends … -replay` router), replays an arrival
// order through the public API, and pins the
// cluster's utility bit-identical to the in-process ServeSharded run — and
// therefore trivially ≥ 99.6% of the single-shard utility the acceptance
// bound asks for.
func TestMultiProcessClusterSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	serveBin := filepath.Join(t.TempDir(), "igepa-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "github.com/ebsn/igepa/cmd/igepa-serve").CombinedOutput(); err != nil {
		t.Fatalf("building igepa-serve: %v\n%s", err, out)
	}

	const (
		S      = 2
		events = 24
		users  = 240
		seed   = 3
		batch  = 24
	)
	common := []string{
		"-workload", "synthetic", "-events", fmt.Sprint(events),
		"-users", fmt.Sprint(users), "-seed", fmt.Sprint(seed),
		"-batch", fmt.Sprint(batch),
	}
	var logs []*bytes.Buffer
	startProc := func(bin string, args ...string) {
		t.Helper()
		cmd := exec.Command(bin, append(args, common...)...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		logs = append(logs, &buf)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}

	backendAddrs := make([]string, S)
	backendURLs := ""
	for i := 0; i < S; i++ {
		backendAddrs[i] = freeAddr(t)
		if i > 0 {
			backendURLs += ","
		}
		backendURLs += "http://" + backendAddrs[i]
		startProc(serveBin, "-listen", backendAddrs[i],
			"-cluster", fmt.Sprint(S), "-index", fmt.Sprint(i))
	}
	routerAddr := freeAddr(t)
	startProc(serveBin, "-listen", routerAddr, "-backends", backendURLs, "-replay")
	base := "http://" + routerAddr

	hc := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		if _, err := tryGetJSON(hc, base+"/healthz", &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			for i, l := range logs {
				t.Logf("proc %d:\n%s", i, l.String())
			}
			t.Fatal("cluster never came up")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// the in-process oracles: the sharded run the cluster must reproduce
	// bit-for-bit, and the single-shard run the utility bound is against
	in, err := igepa.Synthetic(igepa.SyntheticConfig{Seed: seed, NumEvents: events, NumUsers: users})
	if err != nil {
		t.Fatal(err)
	}
	order := xrand.New(9).Perm(users)
	want, err := shard.Serve(in, order, shard.Options{Shards: S, Batch: batch, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	single, err := shard.Serve(in, order, shard.Options{Shards: 1, Batch: batch, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	for _, u := range order {
		code, err := tryPostJSON(hc, base+"/v1/bid", map[string]any{"user": u, "wait": false}, nil)
		if err != nil {
			t.Fatalf("submit user %d: %v", u, err)
		}
		if code != http.StatusAccepted {
			t.Fatalf("submit user %d: %d", u, code)
		}
	}
	var dr struct {
		Drained bool `json:"drained"`
	}
	if _, err := tryPostJSON(hc, base+"/admin/drain", struct{}{}, &dr); err != nil || !dr.Drained {
		t.Fatalf("drain: %v drained=%v", err, dr.Drained)
	}

	var st struct {
		Utility       float64 `json:"utility"`
		LeaseRenewals int     `json:"lease_renewals"`
		MovedSeats    int     `json:"moved_seats"`
		Degraded      bool    `json:"degraded"`
	}
	if _, err := tryGetJSON(hc, base+"/statsz", &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatal("cluster degraded during the smoke")
	}
	if math.Abs(st.Utility-want.Utility) > 1e-6 {
		t.Fatalf("cluster utility %g, ServeSharded %g", st.Utility, want.Utility)
	}
	if st.LeaseRenewals != want.LeaseRenewals || st.MovedSeats != want.MovedSeats {
		t.Fatalf("cluster ran %d renewals / %d moved, ServeSharded %d / %d",
			st.LeaseRenewals, st.MovedSeats, want.LeaseRenewals, want.MovedSeats)
	}
	if ratio := st.Utility / single.Utility; ratio < 0.996 {
		t.Fatalf("cluster utility %g is %.4f of single-shard %g (acceptance floor 0.996)",
			st.Utility, ratio, single.Utility)
	}
}

// TestShutdownDrainsReplayTail drives the -backends command path in replay
// mode over two in-process cluster shards: a tail shorter than one batch is
// still queued at the router when the signal arrives, and the shutdown path
// must drain it into the backends before returning.
func TestShutdownDrainsReplayTail(t *testing.T) {
	cfg := config{
		workload: "synthetic", events: 12, users: 60, seed: 5,
		batch: 24, replay: true, checkWait: 10 * time.Second,
	}
	in, err := makeInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const S = 2
	var backends []*server.Server
	for i := 0; i < S; i++ {
		srv, err := server.New(in, server.Config{Shard: shard.Options{
			Shards: 1, ClusterShards: S, ClusterIndex: i, Batch: cfg.batch, Seed: cfg.seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		backends = append(backends, srv)
		cfg.backends = append(cfg.backends, ts.URL)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveListenerCtx(ctx, null, ln, cfg) }()

	base := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 10 * time.Second}
	for u := 0; u < 5; u++ {
		code, err := tryPostJSON(hc, base+"/v1/bid", map[string]any{"user": u, "wait": false}, nil)
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("submit user %d: %d %v", u, code, err)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveListenerCtx: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("router did not shut down")
	}
	var decided int64
	for _, srv := range backends {
		decided += srv.Stats().Decided
	}
	if decided != 5 {
		t.Fatalf("backends decided %d of the 5 queued bids on shutdown", decided)
	}
}
