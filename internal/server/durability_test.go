package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// driveTraffic pushes a deterministic mix through the HTTP surface: plain
// bids, bids with replacement sets, cancellations, and re-submissions after
// a cancel. Users with u%11 == 10 are never submitted, so later phases of a
// test have fresh users to serve. Requests are sequential on purpose: the
// WAL must capture one well-defined history for the recovery tests to
// replay against.
func driveTraffic(t *testing.T, c *client, nu, nv int, replay bool) {
	t.Helper()
	wantCode := http.StatusOK
	var wait *bool
	if replay {
		// Replay mode flushes strictly on batch size, so a waiting submitter
		// would block until drain: submit fire-and-forget, then drain.
		noWait := false
		wait, wantCode = &noWait, http.StatusAccepted
	}
	for u := 0; u < nu; u++ {
		if u%11 == 10 {
			continue
		}
		req := bidRequest{User: u, Wait: wait}
		if u%7 == 3 {
			req.Bids = []int{u % nv, (u * 3) % nv, (u*5 + 1) % nv}
		}
		if code := c.status("POST", "/v1/bid", req); code != wantCode {
			t.Fatalf("bid user %d: %d, want %d", u, code, wantCode)
		}
	}
	if replay {
		if code := c.status("POST", "/admin/drain", nil); code != http.StatusOK {
			t.Fatalf("drain: %d", code)
		}
	}
	for u := 0; u < nu; u++ {
		if u%11 == 10 || u%5 != 4 {
			continue
		}
		if code := c.status("POST", "/v1/cancel", cancelRequest{User: u}); code != http.StatusOK {
			t.Fatalf("cancel user %d: %d", u, code)
		}
		if u%10 == 4 {
			if code := c.status("POST", "/v1/bid", bidRequest{User: u, Wait: wait}); code != wantCode {
				t.Fatalf("re-bid user %d: %d, want %d", u, code, wantCode)
			}
		}
	}
}

// engineState snapshots the engine under every shard lock — the bit-identity
// comparison key for the recovery tests.
func engineState(srv *Server) *shard.EngineState {
	srv.lockAll()
	defer srv.unlockAll()
	return srv.eng.CheckpointState()
}

func userStates(srv *Server) []uint8 {
	srv.stateMu.Lock()
	defer srv.stateMu.Unlock()
	return append([]uint8(nil), srv.state...)
}

// servingSnapshot captures everything the bit-identity comparison covers;
// take it before Close (the engine releases its workers on Close).
type servingSnapshot struct {
	eng    *shard.EngineState
	states []uint8
}

func snapshotServing(srv *Server) servingSnapshot {
	return servingSnapshot{eng: engineState(srv), states: userStates(srv)}
}

func requireSameServing(t *testing.T, want servingSnapshot, got *Server) {
	t.Helper()
	if gs := engineState(got); !reflect.DeepEqual(want.eng, gs) {
		t.Fatalf("engine state diverged after recovery:\nwant %+v\ngot  %+v", want.eng, gs)
	}
	if gs := userStates(got); !reflect.DeepEqual(want.states, gs) {
		t.Fatalf("user lifecycle diverged after recovery:\nwant %v\ngot  %v", want.states, gs)
	}
}

// TestWarmBootBitIdentical is the tentpole acceptance pin: a server booted
// from the WAL of a cleanly shut down run reaches exactly that run's state —
// decisions, leases, counters, and utility accumulators to the bit — across
// shard counts, worker counts, both dispatch modes, and every fsync policy.
func TestWarmBootBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		s, w   int
		replay bool
		sync   wal.SyncPolicy
	}{
		{name: "live-s1", s: 1, sync: wal.SyncOff},
		{name: "live-s4", s: 4, sync: wal.SyncInterval},
		{name: "live-s8", s: 8, sync: wal.SyncOff},
		{name: "live-s4-always", s: 4, sync: wal.SyncAlways},
		{name: "replay-s1", s: 1, replay: true, sync: wal.SyncOff},
		{name: "replay-s4-workers2", s: 4, w: 2, replay: true, sync: wal.SyncOff},
		{name: "replay-s8-workers4", s: 8, w: 4, replay: true, sync: wal.SyncOff},
	}
	base := testInstance(t, 11, 90, 12)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Shard:   shard.Options{Shards: tc.s, Batch: 16, Seed: 7, Workers: tc.w, CacheSize: 64},
				Replay:  tc.replay,
				WALPath: filepath.Join(t.TempDir(), "wal.log"),
				WALSync: tc.sync, WALSyncInterval: time.Millisecond,
			}
			srvA, _, cA := startServer(t, base.Clone(), cfg)
			driveTraffic(t, cA, 90, 12, tc.replay)
			if !srvA.Drain(10 * time.Second) {
				t.Fatal("drain timed out")
			}
			appends := srvA.walWriter().Stats().Appends
			if appends == 0 {
				t.Fatal("no WAL records written")
			}
			want := snapshotServing(srvA)
			srvA.Close() // clean shutdown: flush + fsync the log

			// B boots on a fresh identical instance with nothing but the log.
			srvB, _, cB := startServer(t, base.Clone(), cfg)
			requireSameServing(t, want, srvB)
			if got := int64(srvB.recovered.Records); got != appends {
				t.Fatalf("recovered %d records, leader appended %d", got, appends)
			}

			// The recovered server keeps serving: the held-out users decide
			// normally on top of the replayed state.
			wait := !tc.replay
			req := bidRequest{User: 10}
			if !wait {
				f := false
				req.Wait = &f
			}
			if code := cB.status("POST", "/v1/bid", req); code != http.StatusOK && code != http.StatusAccepted {
				t.Fatalf("post-recovery bid: %d", code)
			}
			if !srvB.Drain(10 * time.Second) {
				t.Fatal("post-recovery drain timed out")
			}
			if st := userStates(srvB); st[10] != stateDecided {
				t.Fatalf("post-recovery bid never decided (state %d)", st[10])
			}
		})
	}
}

// TestCheckpointBoundsReplay pins the checkpoint contract: an atomic
// snapshot mid-run makes the next boot replay only the WAL suffix past the
// checkpoint offset, and the recovered state is still bit-identical.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	base := testInstance(t, 13, 80, 10)
	cfg := Config{
		Shard:          shard.Options{Shards: 4, Batch: 16, Seed: 3, CacheSize: 64},
		WALPath:        filepath.Join(dir, "wal.log"),
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		WALSync:        wal.SyncOff,
	}
	srvA, _, cA := startServer(t, base.Clone(), cfg)
	for u := 0; u < 40; u++ {
		if code := cA.status("POST", "/v1/bid", bidRequest{User: u}); code != http.StatusOK {
			t.Fatalf("bid user %d: %d", u, code)
		}
	}
	if code := cA.status("POST", "/admin/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	for u := 40; u < 80; u++ {
		if code := cA.status("POST", "/v1/bid", bidRequest{User: u}); code != http.StatusOK {
			t.Fatalf("bid user %d: %d", u, code)
		}
	}
	if !srvA.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	appends := srvA.walWriter().Stats().Appends
	want := snapshotServing(srvA)
	srvA.Close()

	srvB, _, _ := startServer(t, base.Clone(), cfg)
	requireSameServing(t, want, srvB)
	if got := int64(srvB.recovered.Records); got >= appends || got == 0 {
		t.Fatalf("checkpoint did not bound replay: recovered %d of %d records", got, appends)
	}
}

// TestWarmBootTruncatesTornTail pins the torn-write contract end to end: a
// log cut mid-record boots to exactly the state of the surviving whole
// records, reports the dropped bytes, and never replays the fragment.
func TestWarmBootTruncatesTornTail(t *testing.T) {
	base := testInstance(t, 17, 40, 8)
	cfg := Config{
		Shard:   shard.Options{Shards: 2, Batch: 16, Seed: 9, CacheSize: 64},
		WALPath: filepath.Join(t.TempDir(), "wal.log"),
		WALSync: wal.SyncOff,
	}
	srvA, _, cA := startServer(t, base.Clone(), cfg)
	for u := 0; u < 40; u++ {
		if code := cA.status("POST", "/v1/bid", bidRequest{User: u}); code != http.StatusOK {
			t.Fatalf("bid user %d: %d", u, code)
		}
	}
	if !srvA.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	appends := srvA.walWriter().Stats().Appends
	srvA.Close()

	// Tear the final record: a crash mid-write leaves a prefix of it.
	fi, err := os.Stat(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cfg.WALPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	srvB, _, cB := startServer(t, base.Clone(), cfg)
	if got := int64(srvB.recovered.Records); got != appends-1 {
		t.Fatalf("recovered %d records from a log of %d with a torn tail", got, appends)
	}
	if srvB.recovered.Dropped == 0 || srvB.recovered.TailErr == nil {
		t.Fatalf("torn tail not reported: %+v", srvB.recovered)
	}
	var st Stats
	if code := cB.do("GET", "/statsz", nil, &st).StatusCode; code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	if st.WAL == nil || st.WAL.Truncated == 0 || int64(st.WAL.Recovered) != appends-1 {
		t.Fatalf("statsz WAL report: %+v", st.WAL)
	}
	// The server is healthy (truncation is recovery, not failure) and still
	// accepts writes.
	if code := cB.status("GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after torn-tail boot: %d", code)
	}
}

// TestWALFailureStopsWrites pins the fail-stop contract: once an append or
// fsync fails, the server refuses every further write (it cannot make them
// durable) and reports itself degraded — instead of acking into the void.
func TestWALFailureStopsWrites(t *testing.T) {
	base := testInstance(t, 19, 30, 8)
	srv, _, c := startServer(t, base, Config{
		Shard:   shard.Options{Shards: 2, Batch: 8, Seed: 5},
		WALPath: filepath.Join(t.TempDir(), "wal.log"),
		WALSync: wal.SyncOff,
	})
	if code := c.status("POST", "/v1/bid", bidRequest{User: 0}); code != http.StatusOK {
		t.Fatalf("bid before failure: %d", code)
	}
	srv.obs.walErrors.Inc() // what noteWALError does on the first I/O error
	if code := c.status("POST", "/v1/bid", bidRequest{User: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("bid after WAL failure: %d, want 503", code)
	}
	if code := c.status("POST", "/v1/cancel", cancelRequest{User: 0}); code != http.StatusServiceUnavailable {
		t.Fatalf("cancel after WAL failure: %d, want 503", code)
	}
	if code := c.status("GET", "/healthz", nil); code != http.StatusInternalServerError {
		t.Fatalf("healthz after WAL failure: %d, want 500", code)
	}
	if code := c.status("GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after WAL failure: %d, want 503", code)
	}
}
