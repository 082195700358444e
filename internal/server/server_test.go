package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

func testInstance(t testing.TB, seed int64, nu, nv int) *model.Instance {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		Seed: seed, NumEvents: nv, NumUsers: nu,
		MaxEventCap: 10, MaxUserCap: 3, MinBids: 2, MaxBids: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// client is a tiny JSON helper over one httptest server.
type client struct {
	t    testing.TB
	base string
	hc   *http.Client
}

func newClient(t testing.TB, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL, hc: ts.Client()}
}

func (c *client) do(method, path string, body, out any) *http.Response {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func (c *client) status(method, path string, body any) int {
	return c.do(method, path, body, nil).StatusCode
}

func startServer(t testing.TB, in *model.Instance, cfg Config) (*Server, *httptest.Server, *client) {
	t.Helper()
	srv, err := New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, newClient(t, ts)
}

// TestEndpointsSmoke exercises every endpoint of the live server once: the
// CI smoke required by the serving subsystem issue.
func TestEndpointsSmoke(t *testing.T) {
	in := testInstance(t, 3, 60, 12)
	_, _, c := startServer(t, in, Config{
		Shard: shard.Options{Shards: 4, Batch: 16, Seed: 7, CacheSize: 128},
	})

	var h healthResponse
	if code := c.do("GET", "/healthz", nil, &h).StatusCode; code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Status != "ok" || h.NumUsers != 60 || h.NumEvents != 12 || h.Shards != 4 || h.Mode != "live" {
		t.Fatalf("healthz payload: %+v", h)
	}

	// synchronous bid: decided at once by the idle shard loop
	var bid bidResponse
	if code := c.do("POST", "/v1/bid", bidRequest{User: 5}, &bid).StatusCode; code != http.StatusOK {
		t.Fatalf("bid: %d", code)
	}
	if bid.User != 5 {
		t.Fatalf("bid response: %+v", bid)
	}

	// duplicate submission: 409
	if code := c.status("POST", "/v1/bid", bidRequest{User: 5}); code != http.StatusConflict {
		t.Fatalf("duplicate bid: %d, want 409", code)
	}

	// assignment query
	var asg assignmentResponse
	c.do("GET", "/v1/assignment?user=5", nil, &asg)
	if !asg.Decided || asg.State != "decided" {
		t.Fatalf("assignment: %+v", asg)
	}
	if len(asg.Events) != len(bid.Events) {
		t.Fatalf("assignment %v != decision %v", asg.Events, bid.Events)
	}

	// event load query (single and all)
	var ld loadResponse
	c.do("GET", "/v1/load?event=0", nil, &ld)
	if ld.Capacity != in.Events[0].Capacity {
		t.Fatalf("load: %+v", ld)
	}
	var all []loadResponse
	c.do("GET", "/v1/load", nil, &all)
	if len(all) != in.NumEvents() {
		t.Fatalf("load dump has %d events, want %d", len(all), in.NumEvents())
	}

	// cancel and resubmit
	if len(bid.Events) > 0 {
		var cx cancelResponse
		if code := c.do("POST", "/v1/cancel", cancelRequest{User: 5}, &cx).StatusCode; code != http.StatusOK {
			t.Fatalf("cancel failed")
		}
		if len(cx.Freed) != len(bid.Events) {
			t.Fatalf("cancel freed %v, had %v", cx.Freed, bid.Events)
		}
		if code := c.status("POST", "/v1/cancel", cancelRequest{User: 5}); code != http.StatusConflict {
			t.Fatalf("double cancel: %d, want 409", code)
		}
		if code := c.status("POST", "/v1/bid", bidRequest{User: 5}); code != http.StatusOK {
			t.Fatal("resubmit after cancel rejected")
		}
	}

	// statsz
	var st Stats
	c.do("GET", "/statsz", nil, &st)
	if st.Decided == 0 || st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("statsz: %+v", st)
	}

	// drain
	var dr drainResponse
	if code := c.do("POST", "/admin/drain", nil, &dr).StatusCode; code != http.StatusOK || !dr.Drained {
		t.Fatalf("drain: %+v", dr)
	}

	// error paths
	if code := c.status("GET", "/v1/bid", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET bid: %d", code)
	}
	if code := c.status("POST", "/v1/bid", bidRequest{User: -1}); code != http.StatusBadRequest {
		t.Errorf("negative user: %d", code)
	}
	if code := c.status("POST", "/v1/bid", bidRequest{User: 1, Bids: []int{99}}); code != http.StatusBadRequest {
		t.Errorf("unknown event bid: %d", code)
	}
	if code := c.status("POST", "/v1/cancel", cancelRequest{User: 7}); code != http.StatusConflict {
		t.Errorf("cancel of undecided user: %d", code)
	}
	if code := c.status("GET", "/v1/assignment?user=zzz", nil); code != http.StatusBadRequest {
		t.Errorf("bad assignment query: %d", code)
	}
	if code := c.status("GET", "/v1/load?event=-2", nil); code != http.StatusBadRequest {
		t.Errorf("bad load query: %d", code)
	}
}

// TestReplayBitIdenticalToServeSharded is the acceptance-criteria pin: the
// replay-mode server, fed an arrival order through the HTTP surface, makes
// exactly ServeSharded's decisions on the synthetic and Meetup fixtures for
// S ∈ {1,2,4,8} and several worker counts.
func TestReplayBitIdenticalToServeSharded(t *testing.T) {
	fixtures := []struct {
		name string
		in   *model.Instance
	}{
		{"synthetic", testInstance(t, 11, 200, 30)},
	}
	if mu, err := workload.Meetup(workload.MeetupConfig{Seed: 5, NumEvents: 40, NumUsers: 250}); err == nil {
		fixtures = append(fixtures, struct {
			name string
			in   *model.Instance
		}{"meetup", mu})
	} else {
		t.Fatal(err)
	}

	for _, fx := range fixtures {
		order := xrand.New(9).Perm(fx.in.NumUsers())
		for _, s := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, 3, 0} {
				opt := shard.Options{Shards: s, Batch: 32, Seed: 42, Workers: workers, CacheSize: 512}
				want, err := shard.Serve(fx.in, order, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/S=%d/workers=%d", fx.name, s, workers)
				func() {
					srv, _, c := startServer(t, fx.in, Config{
						Shard: opt, Replay: true, QueueDepth: len(order) + 16,
					})
					defer srv.Close()
					noWait := false
					for _, u := range order {
						if code := c.status("POST", "/v1/bid", bidRequest{User: u, Wait: &noWait}); code != http.StatusAccepted {
							t.Fatalf("%s: submit user %d: %d", label, u, code)
						}
					}
					var dr drainResponse
					c.do("POST", "/admin/drain", nil, &dr)
					if !dr.Drained {
						t.Fatalf("%s: drain timed out", label)
					}
					var dump struct {
						Sets [][]int `json:"sets"`
					}
					c.do("GET", "/v1/assignment", nil, &dump)
					got := &model.Arrangement{Sets: dump.Sets}
					modeltest.RequireEqual(t, label, want.Arrangement, got)

					// epoch/renewal schedule must match Serve's too
					st := srv.Stats()
					if st.Epochs != want.Epochs || st.LeaseRenewals != want.LeaseRenewals {
						t.Errorf("%s: server ran %d epochs / %d renewals, Serve %d / %d",
							label, st.Epochs, st.LeaseRenewals, want.Epochs, want.LeaseRenewals)
					}
					if st.MovedSeats != want.MovedSeats {
						t.Errorf("%s: moved %d seats, Serve moved %d", label, st.MovedSeats, want.MovedSeats)
					}
				}()
			}
		}
	}
}

// TestBackpressure429 pins the bounded-queue contract: when the queue is
// full the server answers 429 with a Retry-After hint instead of buffering.
func TestBackpressure429(t *testing.T) {
	in := testInstance(t, 5, 40, 8)
	// Replay mode with a batch far larger than the queue: nothing flushes,
	// so the fifth submission must bounce.
	srv, _, c := startServer(t, in, Config{
		Shard:  shard.Options{Shards: 2, Batch: 1000, Seed: 1},
		Replay: true, QueueDepth: 4,
	})
	noWait := false
	for i := 0; i < 4; i++ {
		if code := c.status("POST", "/v1/bid", bidRequest{User: i, Wait: &noWait}); code != http.StatusAccepted {
			t.Fatalf("submission %d: %d", i, code)
		}
	}
	resp := c.do("POST", "/v1/bid", bidRequest{User: 4, Wait: &noWait}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	st := srv.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Rejected)
	}
	// the bounced user may retry once there is room again
	srv.Drain(5 * time.Second)
	if code := c.status("POST", "/v1/bid", bidRequest{User: 4, Wait: &noWait}); code != http.StatusAccepted {
		t.Error("retry after drain rejected")
	}
}

// TestCacheHitsOverHTTP drives a repeat-bid workload (bid → cancel → bid
// cycles) with the deprecated CacheSize set: every cycle is decided, and the
// cache counters /statsz still carries read zero.
func TestCacheHitsOverHTTP(t *testing.T) {
	in := testInstance(t, 7, 50, 10)
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{Shards: 2, Batch: 8, Seed: 3, CacheSize: 256},
	})
	for round := 0; round < 3; round++ {
		for u := 0; u < 10; u++ {
			var bid bidResponse
			if code := c.do("POST", "/v1/bid", bidRequest{User: u}, &bid).StatusCode; code != http.StatusOK {
				t.Fatalf("round %d user %d: %d", round, u, code)
			}
			c.status("POST", "/v1/cancel", cancelRequest{User: u}) // 409 fine when nothing granted
		}
	}
	srv.Drain(5 * time.Second)
	st := srv.Stats()
	if st.Decided != 30 || st.Cancels == 0 {
		t.Fatalf("repeat-bid workload: decided %d of 30, %d cancels", st.Decided, st.Cancels)
	}
	if st.Cache != (CacheStats{}) {
		t.Fatalf("cache counters = %+v, want zero", st.Cache)
	}
}

// TestBidUpdate pins the bid-replacement path: a submission carrying a new
// bid set is decided against that set, not the instance's original bids.
func TestBidUpdate(t *testing.T) {
	in := testInstance(t, 9, 40, 8)
	// clone so the fixture instance is not shared with other tests
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{Shards: 2, Batch: 8, Seed: 3},
	})
	defer srv.Close()
	newBids := []int{2, 5, 5, 0} // unsorted + duplicate: server normalizes
	var bid bidResponse
	if code := c.do("POST", "/v1/bid", bidRequest{User: 3, Bids: newBids}, &bid).StatusCode; code != http.StatusOK {
		t.Fatalf("bid update: %d", code)
	}
	allowed := map[int]bool{0: true, 2: true, 5: true}
	for _, v := range bid.Events {
		if !allowed[v] {
			t.Fatalf("decision %v contains event outside the updated bid set", bid.Events)
		}
	}
	if got := in.Users[3].Bids; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("bids not normalized: %v", got)
	}
}

// TestConcurrentLiveTraffic hammers a live server from many goroutines —
// bids, cancels, queries, stats — and then checks the final arrangement is
// feasible. Run under -race in CI.
func TestConcurrentLiveTraffic(t *testing.T) {
	in := testInstance(t, 13, 120, 15)
	srv, _, _ := startServer(t, in, Config{
		Shard: shard.Options{Shards: 4, Batch: 16, Seed: 5, CacheSize: 128},
	})
	// Drive the handler directly (httptest transport would throttle on 1 CPU).
	var wg sync.WaitGroup
	post := func(path string, body any) int {
		raw, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		return rec.Code
	}
	get := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < in.NumUsers(); u += 6 {
				if code := post("/v1/bid", bidRequest{User: u}); code != http.StatusOK {
					t.Errorf("user %d: %d", u, code)
					return
				}
				if u%3 == 0 {
					post("/v1/cancel", cancelRequest{User: u})
					post("/v1/bid", bidRequest{User: u})
				}
				get(fmt.Sprintf("/v1/assignment?user=%d", u))
				if u%10 == 0 {
					get("/statsz")
					get("/v1/load")
				}
			}
		}(w)
	}
	wg.Wait()
	srv.Drain(5 * time.Second)
	arr, err := srv.Arrangement()
	if err != nil {
		t.Fatal(err)
	}
	modeltest.RequireFeasible(t, "concurrent live traffic", in, arr)
	st := srv.Stats()
	if st.LeaseErrors != 0 {
		t.Errorf("lease invariant violations: %d", st.LeaseErrors)
	}
	if st.Decided == 0 {
		t.Error("nothing decided")
	}
}

// TestLiveBoundThroughServer runs both dispatch modes with the live LP
// bound enabled and checks /statsz reports it: replay updates per batch,
// live updates at renewal points; decisions are never affected.
func TestLiveBoundThroughServer(t *testing.T) {
	in := testInstance(t, 9, 64, 12)

	t.Run("replay", func(t *testing.T) {
		srv, _, c := startServer(t, in.Clone(), Config{
			Shard:  shard.Options{Shards: 2, Batch: 16, Seed: 5, LiveBound: true},
			Replay: true,
		})
		for u := 0; u < 48; u++ {
			wait := false
			if code := c.status("POST", "/v1/bid", bidRequest{User: u, Wait: &wait}); code != http.StatusAccepted {
				t.Fatalf("bid %d: %d", u, code)
			}
		}
		if !srv.Drain(5 * time.Second) {
			t.Fatal("drain timed out")
		}
		var st Stats
		c.do("GET", "/statsz", nil, &st)
		if st.Bound == nil {
			t.Fatal("/statsz has no live_bound with LiveBound enabled")
		}
		if st.Bound.Updates != st.Epochs || st.Bound.Errors != 0 {
			t.Fatalf("bound updates %d over %d epochs (errors %d)", st.Bound.Updates, st.Epochs, st.Bound.Errors)
		}
		if st.Bound.RemainingLP < 0 {
			t.Fatalf("negative remaining bound %v", st.Bound.RemainingLP)
		}
	})

	t.Run("live", func(t *testing.T) {
		srv, _, c := startServer(t, in.Clone(), Config{
			Shard: shard.Options{Shards: 2, Batch: 8, Seed: 5, LiveBound: true},
		})
		for u := 0; u < 48; u++ {
			req := bidRequest{User: u}
			if u%7 == 0 {
				// replacement bid set: exercises the shadow re-bid path
				req.Bids = []int{u % 12, (u + 3) % 12}
			}
			if code := c.status("POST", "/v1/bid", req); code != http.StatusOK {
				t.Fatalf("bid %d: %d", u, code)
			}
		}
		if !srv.Drain(5 * time.Second) {
			t.Fatal("drain timed out")
		}
		var st Stats
		c.do("GET", "/statsz", nil, &st)
		if st.Bound == nil {
			t.Fatal("/statsz has no live_bound with LiveBound enabled")
		}
		if st.Bound.Updates == 0 {
			t.Fatal("live mode never updated the bound (drain must fold the tail)")
		}
		if st.Bound.Errors != 0 {
			t.Fatalf("bound errors: %d", st.Bound.Errors)
		}
		// Drain folded every pending event: another drain adds nothing.
		srv.Drain(time.Second)
		var again Stats
		c.do("GET", "/statsz", nil, &again)
		if again.Bound.Updates != st.Bound.Updates {
			t.Fatalf("idle drain changed bound updates: %d -> %d", st.Bound.Updates, again.Bound.Updates)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		_, _, c := startServer(t, in.Clone(), Config{
			Shard: shard.Options{Shards: 2, Batch: 16, Seed: 5},
		})
		var st Stats
		c.do("GET", "/statsz", nil, &st)
		if st.Bound != nil {
			t.Fatal("live_bound reported without LiveBound")
		}
	})
}
