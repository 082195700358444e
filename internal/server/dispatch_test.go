package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// loneBid posts one waiting bid with nothing else in flight and returns its
// answer. Only a shard loop that decides the moment it is idle answers it:
// the bid's micro-batch never fills, and nothing else may wake the loop. If
// no answer comes within 10 s, Close releases the parked handler so the
// test fails instead of hanging.
func loneBid(t *testing.T, srv *Server, c *client, u int) bidResponse {
	t.Helper()
	type answer struct {
		code int
		bid  bidResponse
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		var a answer
		resp, err := c.hc.Post(c.base+"/v1/bid", "application/json", strings.NewReader(fmt.Sprintf(`{"user":%d}`, u)))
		if err == nil {
			a.code = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&a.bid)
			resp.Body.Close()
		}
		a.err = err
		done <- a
	}()
	select {
	case a := <-done:
		if a.err != nil || a.code != http.StatusOK || a.bid.User != u {
			t.Fatalf("lone bid for user %d: HTTP %d %+v (%v)", u, a.code, a.bid, a.err)
		}
		return a.bid
	case <-time.After(10 * time.Second):
		srv.Close()
		t.Fatal("lone bid still waiting after 10 s: the shard loop waited for company")
		return bidResponse{}
	}
}

// TestLoneBidDecidedAtOnce is the no-timer guard: with a micro-batch of 8
// and the deprecated flush interval set to an hour, a lone bid is decided
// at once, alone in its batch.
func TestLoneBidDecidedAtOnce(t *testing.T) {
	in := testInstance(t, 47, 60, 10)
	srv, _, c := startServer(t, in, Config{
		Shard:         shard.Options{Shards: 2, Batch: 16, Seed: 3},
		FlushInterval: time.Hour, // ignored: nothing waits on it
		MicroBatch:    8,
	})
	loneBid(t, srv, c, 5)
	if !srv.Drain(5 * time.Second) {
		t.Fatal("shard loop did not go idle")
	}
	if st := srv.Stats(); st.Epochs != 1 || st.Decided != 1 {
		t.Fatalf("one bid decided in %d micro-batches (%d decided), want 1", st.Epochs, st.Decided)
	}
}

// TestLoneBidCommittedBeforeReply is the no-timer guard on the durable path:
// a WAL-backed live server answers a lone bid at once, and by the time the
// answer arrives the bid's record is in the log.
func TestLoneBidCommittedBeforeReply(t *testing.T) {
	in := testInstance(t, 49, 60, 10)
	path := filepath.Join(t.TempDir(), "wal.log")
	srv, _, c := startServer(t, in, Config{
		Shard:      shard.Options{Shards: 2, Batch: 16, Seed: 3},
		MicroBatch: 8,
		WALPath:    path,
		WALSync:    wal.SyncAlways,
	})
	const u = 7
	loneBid(t, srv, c, u)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payloads, _, tailErr := wal.Scan(f)
	if tailErr != nil {
		t.Fatalf("log tail: %v", tailErr)
	}
	for _, p := range payloads {
		op, err := wal.DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		if op.Kind == wal.OpBid && op.User == u {
			return
		}
	}
	t.Fatalf("bid for user %d answered, but the log's %d records hold no bid record for it", u, len(payloads))
}
