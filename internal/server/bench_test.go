package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/stats"
)

// BenchmarkServeHTTP measures the serving subsystem end to end over real
// HTTP: a pool of closed-loop clients cycles bid → cancel against a live
// 4-shard server. Each iteration is one decided arrival. Reported metrics:
//
//	arrivals/s     sustained decision throughput through the full stack
//	               (HTTP codec, queueing, micro-batch flush, planner)
//	p99_ms         client-observed p99 request latency (includes the
//	               micro-batch coalescing wait)
//
// The bench is the source of the BENCH_serve.json CI artifact.
func BenchmarkServeHTTP(b *testing.B) {
	in := testInstance(b, 1, 400, 40)
	srv, err := New(in, Config{
		Shard:      shard.Options{Shards: 4, Batch: 32, Seed: 1, CacheSize: 4096},
		MicroBatch: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var userCtr atomic.Int64
	var mu sync.Mutex
	var lats []time.Duration

	post := func(hc *http.Client, path string, body any) (int, error) {
		raw, _ := json.Marshal(body)
		resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// 8 closed-loop clients per core: micro-batching only coalesces when
	// several requests are in flight at once.
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		hc := &http.Client{}
		u := int(userCtr.Add(1)-1) % in.NumUsers()
		local := make([]time.Duration, 0, 256)
		for pb.Next() {
			t0 := time.Now()
			code, err := post(hc, "/v1/bid", bidRequest{User: u})
			if err != nil {
				b.Error(err)
				return
			}
			switch code {
			case http.StatusOK:
				local = append(local, time.Since(t0))
				post(hc, "/v1/cancel", cancelRequest{User: u})
			case http.StatusTooManyRequests:
				time.Sleep(time.Millisecond) // honor backpressure, then retry
			case http.StatusConflict:
				// user collision (more clients than users on very wide
				// machines): release and move on, don't fail the bench
				post(hc, "/v1/cancel", cancelRequest{User: u})
			default:
				b.Errorf("bid user %d: %d", u, code)
				return
			}
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	b.StopTimer()

	st := srv.Stats()
	if len(lats) > 0 {
		p99 := stats.DurationPercentiles(lats, 0.99)[0]
		b.ReportMetric(float64(p99.Microseconds())/1000, "p99_ms")
	}
	b.ReportMetric(float64(st.Decided)/elapsed.Seconds(), "arrivals/s")
	if testing.Verbose() {
		fmt.Printf("decided=%d cancels=%d rejected=%d\n",
			st.Decided, st.Cancels, st.Rejected)
	}
}
