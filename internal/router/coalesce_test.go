package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
)

// startShards boots s cluster shards without a router; wrap, when non-nil,
// stands between each shard's listener and its handler.
func startShards(t testing.TB, in *model.Instance, s int, opt shard.Options, wrap func(si int, h http.Handler) http.Handler) *cluster {
	t.Helper()
	cl := &cluster{}
	for si := 0; si < s; si++ {
		bopt := opt
		bopt.Shards, bopt.ClusterShards, bopt.ClusterIndex = 1, s, si
		srv, err := server.New(in, server.Config{Shard: bopt})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(si, srv)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { srv.Close() })
		t.Cleanup(ts.Close)
		cl.backends = append(cl.backends, srv)
		cl.ts = append(cl.ts, ts)
		cl.urls = append(cl.urls, ts.URL)
	}
	return cl
}

// route puts a live router in front of backends (in shard order, unchecked).
func (cl *cluster) route(t testing.TB, in *model.Instance, backends []string, opt shard.Options, rcfg Config) {
	t.Helper()
	rcfg.Backends = backends
	rcfg.Shard = opt
	rcfg.Shard.Shards = len(backends)
	rt, err := New(in, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	cl.rt = rt
}

// ownedBy lists the users of the instance whose home shard is si.
func ownedBy(in *model.Instance, seed int64, s, si int) []int {
	var us []int
	for u := 0; u < in.NumUsers(); u++ {
		if shard.ShardOf(seed, u, s) == si {
			us = append(us, u)
		}
	}
	return us
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d before the router:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterCoalesces pins the tentpole: 32 concurrent clients' bids, reads
// and cancels reach the shards in far fewer /cluster/ops round trips than
// requests, every op answers as it would directly, and
// igepa_router_backend_ops_total counts each op once.
func TestRouterCoalesces(t *testing.T) {
	in := testInstance(t, 51, 128, 16)
	opt := shard.Options{Batch: 16, Seed: 7}
	var hits atomic.Int64
	cl := startShards(t, in, 2, opt, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/ops" {
				hits.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	cl.route(t, in, cl.urls, opt, Config{})

	const clients, rounds = 32, 3
	var requests atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for u := c; u < in.NumUsers(); u += clients {
					requests.Add(3)
					if code := cl.call(t, "POST", "/v1/bid", bidRequest{User: u}, nil); code != http.StatusOK {
						t.Errorf("bid %d: %d", u, code)
						return
					}
					if code := cl.call(t, "GET", fmt.Sprintf("/v1/assignment?user=%d", u), nil, nil); code != http.StatusOK {
						t.Errorf("read %d: %d", u, code)
						return
					}
					if code := cl.call(t, "POST", "/v1/cancel", cancelRequest{User: u}, nil); code != http.StatusOK {
						t.Errorf("cancel %d: %d", u, code)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	n, envelopes := requests.Load(), hits.Load()
	t.Logf("%d requests in %d envelopes", n, envelopes)
	if envelopes == 0 || 2*envelopes > n {
		t.Fatalf("%d requests took %d /cluster/ops round trips; want fewer than half", n, envelopes)
	}
	fams := rawScrape(t, cl, "/metrics")
	var carried float64
	for _, sh := range []string{"0", "1"} {
		carried += mustSample(t, fams, "igepa_router_backend_ops_total", "igepa_router_backend_ops_total", map[string]string{"shard": sh})
	}
	if carried != float64(n) {
		t.Fatalf("igepa_router_backend_ops_total = %v, want %d", carried, n)
	}
	if st := cl.rt.Stats(); st.Degraded || st.Arrivals != int64(n/3) || st.Cancels != int64(n/3) {
		t.Fatalf("router counted %d arrivals, %d cancels (degraded %v), want %d each", st.Arrivals, st.Cancels, st.Degraded, n/3)
	}
}

// TestRouterMisroutedAnswers421 pins the answer when no backend owns a user:
// with the backends swapped every per-user op bounces twice, and the client
// gets 421 for a cancel and a read as for a bid — never an empty 200.
func TestRouterMisroutedAnswers421(t *testing.T) {
	in := testInstance(t, 53, 40, 8)
	opt := shard.Options{Batch: 16, Seed: 7}
	cl := startShards(t, in, 2, opt, nil)
	cl.route(t, in, []string{cl.urls[1], cl.urls[0]}, opt, Config{})
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/bid", `{"user":3}`},
		{"POST", "/v1/cancel", `{"user":3}`},
		{"GET", "/v1/assignment?user=3", ""},
	} {
		rec := httptest.NewRecorder()
		cl.rt.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusMisdirectedRequest || !strings.Contains(rec.Body.String(), "no backend owns user 3") {
			t.Errorf("%s %s through swapped backends: %d %q, want 421", c.method, c.path, rec.Code, rec.Body.String())
		}
	}
	if st := cl.rt.Stats(); st.Misrouted != 3 {
		t.Errorf("misrouted_421 = %d, want 3 (one re-resolution per op)", st.Misrouted)
	}
}

// TestRouterCloseDuringRenewal pins Close against a live renewal it races:
// B bids trigger a renewal round on its own goroutine and Close follows at
// once. Close waits the round out under renewMu, so the coordinator is never
// closed under it (which degraded the router with "closed"), and no sender,
// renewal or connection goroutine outlives the router.
func TestRouterCloseDuringRenewal(t *testing.T) {
	in := testInstance(t, 55, 160, 16)
	opt := shard.Options{Batch: 16, Seed: 7}
	cl := startShards(t, in, 2, opt, nil)
	base := runtime.NumGoroutine()
	for first := 0; first+opt.Batch <= in.NumUsers(); first += opt.Batch {
		rt, err := New(in, Config{Backends: cl.urls, Shard: shard.Options{Shards: 2, Batch: opt.Batch, Seed: opt.Seed}})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for u := first; u < first+opt.Batch; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bid", strings.NewReader(fmt.Sprintf(`{"user":%d}`, u))))
				if rec.Code != http.StatusOK {
					t.Errorf("bid %d: %d %s", u, rec.Code, rec.Body.String())
				}
			}(u)
		}
		wg.Wait()
		rt.Close()
		rt.tryRenew() // a trigger that lost the race to Close renews nothing
		if rt.degraded.Load() {
			t.Fatalf("router degraded by Close: %s", rt.degradedReason())
		}
	}
	waitGoroutines(t, base)
}

// TestRouterBackendDiesMidEnvelope pins the failure semantics: a backend
// that dies while an envelope is in flight answers 502 to every op of that
// envelope and of the one queued behind it, and Close leaves no goroutine.
func TestRouterBackendDiesMidEnvelope(t *testing.T) {
	in := testInstance(t, 57, 120, 16)
	opt := shard.Options{Batch: 1000, Seed: 7}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var hold atomic.Bool
	hold.Store(true)
	cl := startShards(t, in, 2, opt, func(si int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if si == 1 && r.URL.Path == "/cluster/ops" && hold.Load() {
				entered <- struct{}{}
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	base := runtime.NumGoroutine()
	rt, err := New(in, Config{Backends: cl.urls, Shard: shard.Options{Shards: 2, Batch: opt.Batch, Seed: opt.Seed},
		Retries: -1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	users := ownedBy(in, opt.Seed, 2, 1)[:16]
	codes := make(chan int, len(users))
	bid := func(u int) {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bid", strings.NewReader(fmt.Sprintf(`{"user":%d}`, u))))
		codes <- rec.Code
	}
	go bid(users[0])
	<-entered // the first envelope is parked inside shard 1
	hold.Store(false)
	for _, u := range users[1:] {
		go bid(u)
	}
	queued := func() int {
		c := rt.backends[1].ops
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	for deadline := time.Now().Add(5 * time.Second); queued() < len(users)-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d ops queued behind the parked envelope", queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Shard 1 dies: its listener and every connection to it close.
	cl.ts[1].Listener.Close()
	cl.ts[1].CloseClientConnections()
	for range users {
		if code := <-codes; code != http.StatusBadGateway {
			t.Errorf("op on a dead backend answered %d, want 502", code)
		}
	}
	close(release)
	rt.Close()
	waitGoroutines(t, base)
}
