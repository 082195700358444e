package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// ShutdownGrace bounds each stage of a signal-driven shutdown: finishing
// in-flight HTTP requests, then draining the queued decisions.
const ShutdownGrace = 10 * time.Second

// Run serves h on ln until ctx is done, then shuts down: stop accepting,
// finish in-flight requests (http.Server.Shutdown, bounded by
// ShutdownGrace), then call stop — the caller's drain, and checkpoint if it
// keeps one. Run returns nil on a clean stop, and also when the listener's
// owner closes ln; stop is not called then.
func Run(ctx context.Context, ln net.Listener, h http.Handler, stop func()) error {
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	_ = hs.Shutdown(sctx) // past the grace, stop still drains what was accepted
	<-served              // http.ErrServerClosed
	stop()
	return nil
}
