package server

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestRun pins the one shutdown path the serving commands share. Cancelling
// ctx stops accepting, lets the in-flight slow request finish with 200, then
// calls stop exactly once and returns nil. Closing ln from outside (the
// listener's owner ending the server) returns nil without calling stop.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		end       func(cancel context.CancelFunc, ln net.Listener)
		wantStops int32
	}{
		{"cancel_ctx", func(cancel context.CancelFunc, _ net.Listener) { cancel() }, 1},
		{"close_listener", func(_ context.CancelFunc, ln net.Listener) { ln.Close() }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			entered, release := make(chan struct{}), make(chan struct{})
			var finished atomic.Bool
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				<-release
				finished.Store(true)
				w.WriteHeader(http.StatusOK)
			})
			var stops atomic.Int32
			var finishedAtStop atomic.Bool
			stop := func() {
				stops.Add(1)
				finishedAtStop.Store(finished.Load())
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- Run(ctx, ln, h, stop) }()

			status := make(chan int, 1)
			go func() {
				hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
				resp, err := hc.Get("http://" + addr + "/slow")
				if err != nil {
					status <- 0
					return
				}
				resp.Body.Close()
				status <- resp.StatusCode
			}()
			<-entered
			tc.end(cancel, ln)

			// Accepting stops while the slow request is still in flight.
			deadline := time.Now().Add(5 * time.Second)
			for {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					break
				}
				c.Close()
				if time.Now().After(deadline) {
					t.Fatal("listener still accepting after shutdown began")
				}
				time.Sleep(time.Millisecond)
			}
			if n := stops.Load(); n != 0 {
				t.Fatalf("stop ran %d times before the in-flight request finished", n)
			}
			close(release)
			if code := <-status; code != http.StatusOK {
				t.Fatalf("in-flight request: status %d, want 200", code)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return")
			}
			if n := stops.Load(); n != tc.wantStops {
				t.Fatalf("stop ran %d times, want %d", n, tc.wantStops)
			}
			if tc.wantStops > 0 && !finishedAtStop.Load() {
				t.Fatal("stop ran before the in-flight request finished")
			}
		})
	}
}
