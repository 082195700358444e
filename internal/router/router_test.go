package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/model/modeltest"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

type cancelRequest struct {
	User int `json:"user"`
}

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

// cluster is a full in-process deployment: S shard backends behind one
// router, each backend an httptest server over a cluster-mode server.Server.
type cluster struct {
	rt       *Router
	backends []*server.Server
	ts       []*httptest.Server
	urls     []string
}

// startCluster boots S cluster shards and a router over them. opt carries
// the shared Batch/Seed/CacheSize; per-backend ClusterShards/Index and the
// router's Shards are derived from s.
func startCluster(t testing.TB, in *model.Instance, s int, opt shard.Options, rcfg Config) *cluster {
	t.Helper()
	cl := &cluster{}
	for si := 0; si < s; si++ {
		bopt := opt
		bopt.Shards = 1
		bopt.ClusterShards = s
		bopt.ClusterIndex = si
		srv, err := server.New(in, server.Config{Shard: bopt})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		cl.backends = append(cl.backends, srv)
		cl.ts = append(cl.ts, ts)
		cl.urls = append(cl.urls, ts.URL)
	}
	rcfg.Backends = cl.urls
	ropt := opt
	ropt.Shards = s
	ropt.ClusterShards, ropt.ClusterIndex = 0, 0
	rcfg.Shard = ropt
	rt, err := New(in, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := rt.CheckBackends(); err != nil {
		t.Fatal(err)
	}
	cl.rt = rt
	return cl
}

// call drives the router handler directly (the httptest transport throttles
// badly on single-CPU runners; the backends are still reached over real
// HTTP).
func (cl *cluster) call(t testing.TB, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	cl.rt.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// TestRouterReplayBitIdentical is the acceptance pin for the distributed
// tier: a cluster of S shard processes behind the replay router makes
// exactly ServeSharded's decisions — same arrangement, same renewal
// schedule, same moved-seat count — on the synthetic and Meetup fixtures.
func TestRouterReplayBitIdentical(t *testing.T) {
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
		for _, s := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", fx.name, s), func(t *testing.T) {
				opt := shard.Options{Batch: 32, Seed: 42, CacheSize: 512}
				sharded := opt
				sharded.Shards = s
				want, err := shard.Serve(fx.in, order, sharded)
				if err != nil {
					t.Fatal(err)
				}

				cl := startCluster(t, fx.in, s, opt, Config{
					Replay: true, QueueDepth: len(order) + 16,
				})
				for _, u := range order {
					noWait := false
					if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u, Wait: &noWait}, nil); code != http.StatusAccepted {
						t.Fatalf("submit user %d: %d", u, code)
					}
				}
				var dr struct {
					Drained bool `json:"drained"`
				}
				cl.call(t, "POST", "/admin/drain", nil, &dr)
				if !dr.Drained {
					t.Fatal("drain timed out")
				}
				var dump struct {
					Sets [][]int `json:"sets"`
				}
				if code := cl.call(t, "GET", "/v1/assignment", nil, &dump); code != http.StatusOK {
					t.Fatalf("assignment dump: %d", code)
				}
				got := &model.Arrangement{Sets: dump.Sets}
				modeltest.RequireEqual(t, t.Name(), want.Arrangement, got)

				st := cl.rt.Stats()
				if st.LeaseRenewals != want.LeaseRenewals {
					t.Errorf("router ran %d renewals, ServeSharded %d", st.LeaseRenewals, want.LeaseRenewals)
				}
				if st.MovedSeats != want.MovedSeats {
					t.Errorf("router moved %d seats, ServeSharded %d", st.MovedSeats, want.MovedSeats)
				}
				if int(st.Epochs) != want.Epochs {
					t.Errorf("router dispatched %d epochs, ServeSharded %d", st.Epochs, want.Epochs)
				}
				if st.Degraded {
					t.Fatalf("router degraded during a clean replay: %s", st.DegradedReason)
				}
				// per-user point reads agree with the dump through the router
				for _, u := range order[:10] {
					var asg struct {
						Events []int `json:"events"`
					}
					if code := cl.call(t, "GET", fmt.Sprintf("/v1/assignment?user=%d", u), nil, &asg); code != http.StatusOK {
						t.Fatalf("assignment for %d: %d", u, code)
					}
					if fmt.Sprint(asg.Events) != fmt.Sprint(want.Arrangement.Sets[u]) &&
						!(len(asg.Events) == 0 && len(want.Arrangement.Sets[u]) == 0) {
						t.Fatalf("user %d: point read %v, Serve decided %v", u, asg.Events, want.Arrangement.Sets[u])
					}
				}
			})
		}
	}
}

// TestRouterLiveServes exercises the live proxy under concurrency (-race):
// parallel bids, cancels and reads through the router against two real
// backends, then checks the merged view is consistent and feasible.
func TestRouterLiveServes(t *testing.T) {
	in := testInstance(t, 21, 120, 16)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: 7, CacheSize: 128}, Config{})

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < in.NumUsers(); u += workers {
				var bid struct {
					Events []int `json:"events"`
				}
				code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u}, &bid)
				if code != http.StatusOK {
					t.Errorf("bid %d: %d", u, code)
					return
				}
				if u%3 == 0 {
					cl.call(t, "GET", fmt.Sprintf("/v1/assignment?user=%d", u), nil, nil)
				}
				if u%5 == 0 && len(bid.Events) > 0 {
					if code := cl.call(t, "POST", "/v1/cancel", cancelRequest{User: u}, nil); code != http.StatusOK {
						t.Errorf("cancel %d: %d", u, code)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var dr struct {
		Drained bool `json:"drained"`
	}
	cl.call(t, "POST", "/admin/drain", nil, &dr)
	if !dr.Drained {
		t.Fatal("drain timed out")
	}
	var dump struct {
		Sets [][]int `json:"sets"`
	}
	if code := cl.call(t, "GET", "/v1/assignment", nil, &dump); code != http.StatusOK {
		t.Fatalf("assignment dump: %d", code)
	}
	modeltest.RequireFeasible(t, "live cluster arrangement", in, &model.Arrangement{Sets: dump.Sets})

	st := cl.rt.Stats()
	if st.Degraded {
		t.Fatalf("router degraded: %s", st.DegradedReason)
	}
	if st.Arrivals == 0 || st.Utility <= 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
	// the load view sums coherently against capacity
	var load []struct {
		Event, Load, Capacity int
	}
	if code := cl.call(t, "GET", "/v1/load", nil, &load); code != http.StatusOK {
		t.Fatalf("load: %d", code)
	}
	if len(load) != in.NumEvents() {
		t.Fatalf("load rows: %d, want %d", len(load), in.NumEvents())
	}
	for _, row := range load {
		if row.Load > row.Capacity {
			t.Fatalf("merged load exceeds capacity: %+v", row)
		}
	}
}

// TestRouterMigration pins the join/leave path: a decided user range moves
// between backends through /admin/migrate; assignments survive, the source
// answers 421 directly, the router keeps serving the range seamlessly, and
// new traffic for the range lands on the target.
func TestRouterMigration(t *testing.T) {
	in := testInstance(t, 25, 100, 12)
	seed := int64(7)
	cl := startCluster(t, in, 2, shard.Options{Batch: 16, Seed: seed, CacheSize: 128}, Config{})

	// collect users owned by shard 0: some decided, one left un-submitted
	var owned []int
	for u := 0; u < in.NumUsers() && len(owned) < 4; u++ {
		if shard.ShardOf(seed, u, 2) == 0 {
			owned = append(owned, u)
		}
	}
	decided := owned[:3]
	fresh := owned[3]
	before := make(map[int][]int)
	for _, u := range decided {
		var bid struct {
			Events []int `json:"events"`
		}
		if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u}, &bid); code != http.StatusOK {
			t.Fatalf("bid %d: %d", u, code)
		}
		before[u] = bid.Events
	}

	movers := append(append([]int(nil), decided...), fresh)
	var mr struct {
		Migrated int `json:"migrated"`
		Seats    int `json:"seats_moved"`
	}
	if code := cl.call(t, "POST", "/admin/migrate", MigrateRequest{From: 0, To: 1, Users: movers}, &mr); code != http.StatusOK {
		t.Fatalf("migrate: %d", code)
	}
	wantSeats := 0
	for _, u := range decided {
		wantSeats += len(before[u])
	}
	if mr.Migrated != len(movers) || mr.Seats != wantSeats {
		t.Fatalf("migrate reported %+v, want %d users / %d seats", mr, len(movers), wantSeats)
	}
	// re-migrating the same range from 0 conflicts: the router knows they moved
	if code := cl.call(t, "POST", "/admin/migrate", MigrateRequest{From: 0, To: 1, Users: movers}, nil); code != http.StatusConflict {
		t.Fatalf("double migrate: %d, want 409", code)
	}

	// assignments survive the move, served through the router
	for _, u := range decided {
		var asg struct {
			Events  []int `json:"events"`
			Decided bool  `json:"decided"`
		}
		if code := cl.call(t, "GET", fmt.Sprintf("/v1/assignment?user=%d", u), nil, &asg); code != http.StatusOK {
			t.Fatalf("assignment %d after migrate: %d", u, code)
		}
		if !asg.Decided || fmt.Sprint(asg.Events) != fmt.Sprint(before[u]) {
			t.Fatalf("user %d: %v after migrate, decided %v", u, asg.Events, before[u])
		}
	}
	// the source now 421s direct requests for the range
	resp, err := http.Get(cl.urls[0] + fmt.Sprintf("/v1/assignment?user=%d", decided[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("source backend after migrate: %d, want 421", resp.StatusCode)
	}
	// new traffic for the migrated range decides on the target
	var bid struct {
		Events []int `json:"events"`
	}
	if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: fresh}, &bid); code != http.StatusOK {
		t.Fatalf("bid for migrated fresh user: %d", code)
	}
	tresp, err := http.Get(cl.urls[1] + fmt.Sprintf("/v1/assignment?user=%d", fresh))
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("target backend does not serve the migrated fresh user: %d", tresp.StatusCode)
	}
	// cancels route to the new owner too
	if len(before[decided[0]]) > 0 {
		if code := cl.call(t, "POST", "/v1/cancel", cancelRequest{User: decided[0]}, nil); code != http.StatusOK {
			t.Fatalf("cancel after migrate: %d", code)
		}
	}
	if cl.rt.Stats().Degraded {
		t.Fatalf("router degraded: %s", cl.rt.Stats().DegradedReason)
	}
}

// TestRouterDegradesFailStop pins the fail-stop discipline: when a backend
// dies mid-deployment the router stops accepting writes (503) instead of
// serving a split-brain view, and /readyz goes false.
func TestRouterDegradesFailStop(t *testing.T) {
	in := testInstance(t, 27, 80, 10)
	cl := startCluster(t, in, 2, shard.Options{Batch: 8, Seed: 7}, Config{
		Replay: true, QueueDepth: 256, Timeout: 2 * time.Second, Retries: 0,
	})
	noWait := false
	// first batch decides cleanly
	var submitted []int
	for u := 0; u < in.NumUsers() && len(submitted) < 8; u++ {
		if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u, Wait: &noWait}, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", u, code)
		}
		submitted = append(submitted, u)
	}
	cl.call(t, "POST", "/admin/drain", nil, nil)
	if cl.rt.Stats().Degraded {
		t.Fatal("degraded before any fault")
	}

	// kill backend 1's listener and push another batch through
	cl.ts[1].Close()
	for u := in.NumUsers() - 1; u >= in.NumUsers()-8; u-- {
		cl.call(t, "POST", "/v1/bid", bidRequest{User: u, Wait: &noWait}, nil)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !cl.rt.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("router never degraded after losing a backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// degraded is sticky: writes bounce 503
	if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: 0, Wait: &noWait}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("bid on a degraded router: %d, want 503", code)
	}
	if code := cl.call(t, "POST", "/admin/migrate", MigrateRequest{From: 0, To: 1, Users: submitted}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("migrate on a degraded router: %d, want 503", code)
	}
	var rd struct {
		Ready bool `json:"ready"`
	}
	cl.call(t, "GET", "/readyz", nil, &rd)
	if rd.Ready {
		t.Fatal("degraded router reports ready")
	}
}

// TestRouterConfigValidation pins New's guardrails.
func TestRouterConfigValidation(t *testing.T) {
	in := testInstance(t, 29, 20, 6)
	if _, err := New(in, Config{}); err == nil {
		t.Fatal("New accepted an empty backend list")
	}
	if _, err := New(in, Config{
		Backends: []string{"http://a", "http://b"},
		Shard:    shard.Options{Shards: 3},
	}); err == nil {
		t.Fatal("New accepted Shards != len(Backends)")
	}
}
