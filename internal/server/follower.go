package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/wal"
)

// DefaultLagBytes is the follower readiness bound: the follower reports
// ready only while the unapplied suffix of the leader's log is at most this
// many bytes.
const DefaultLagBytes = 64 << 10

// followPoll is how long the tailer sleeps when it reaches the end of the
// log (or its torn in-flight tail) before looking again.
const followPoll = 2 * time.Millisecond

// follower tails the leader's WAL and applies every record to this
// process's engine — a read replica built from the same determinism
// contract the recovery path uses. It never truncates the log (an
// incomplete tail may be the leader's write in flight) and never writes.
type follower struct {
	srv *Server

	mu      sync.Mutex
	applied int64 // offset of the next unread record (= bytes applied)
	size    int64 // last observed log size; -1 until first observation
	records int64 // records applied by this process
	failure error // permanent: corrupt record or apply error; never ready again

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// startFollower begins tailing from startOff (the checkpoint's WAL offset).
func (srv *Server) startFollower(startOff int64) {
	f := &follower{
		srv:     srv,
		applied: startOff,
		size:    -1,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	srv.fol = f
	srv.follow.Store(true)
	go f.loop()
}

// stopLoop halts the tailer and waits for it to exit; safe to call twice
// (Promote stops it, and Close stops it again on the way down).
func (f *follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

func (f *follower) loop() {
	defer close(f.done)
	t := f.openTailer()
	if t == nil {
		return
	}
	defer t.Close()
	// lastReady tracks the /readyz verdict so the igepa_readiness_flips_total
	// counter sees every 503↔200 transition, not just scrape-time samples.
	// A follower starts not-ready (unknown lag is not "caught up").
	lastReady := false
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		payload, err := t.Next()
		switch {
		case err == nil:
			op, derr := wal.DecodeOp(payload)
			if derr != nil {
				f.fail(derr)
				return
			}
			f.srv.lockAll()
			aerr := f.srv.applyOp(op)
			f.srv.unlockAll()
			if aerr != nil {
				f.fail(aerr)
				return
			}
			f.mu.Lock()
			f.applied = t.Offset()
			f.records++
			f.mu.Unlock()
			f.noteReadiness(&lastReady)
		case errors.Is(err, io.EOF), errors.Is(err, wal.ErrTorn):
			// Caught up (or racing the leader's buffered write): note how
			// far the log reaches for the lag bound, then wait for growth.
			if size, serr := t.Size(); serr == nil {
				f.mu.Lock()
				f.size = size
				f.mu.Unlock()
			}
			f.noteReadiness(&lastReady)
			select {
			case <-f.stop:
				return
			case <-time.After(followPoll):
			}
		default:
			// ErrCorrupt or an I/O failure: replaying past this point would
			// violate the never-replay-a-bad-record contract, so the
			// follower parks itself permanently not-ready.
			f.fail(err)
			return
		}
	}
}

// openTailer waits for the leader's log to exist (the follower may start
// first) and opens it at the applied offset.
func (f *follower) openTailer() *wal.Tailer {
	for {
		t, err := wal.OpenTailer(f.srv.cfg.WALPath, f.applied)
		if err == nil {
			return t
		}
		select {
		case <-f.stop:
			return nil
		case <-time.After(followPoll):
		}
	}
}

// noteReadiness counts readiness transitions in either direction. Called
// only from the tailer goroutine; *last is its private state.
func (f *follower) noteReadiness(last *bool) {
	ready := f.stats().Ready
	if ready != *last {
		*last = ready
		f.srv.obs.readyFlips.Inc()
	}
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	if f.failure == nil {
		f.failure = err
	}
	f.mu.Unlock()
	log.Printf("server: follower halted, permanently not ready: %v", err)
}

// FollowerStats is the /statsz (and /readyz) view of the replica.
type FollowerStats struct {
	AppliedOffset int64  `json:"applied_offset"`
	LogSize       int64  `json:"log_size"`
	LagBytes      int64  `json:"lag_bytes"`
	Records       int64  `json:"records_applied"`
	Ready         bool   `json:"ready"`
	Failure       string `json:"failure,omitempty"`
}

func (f *follower) stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		AppliedOffset: f.applied,
		LogSize:       f.size,
		Records:       f.records,
	}
	if f.failure != nil {
		st.Failure = f.failure.Error()
		return st
	}
	if f.size < 0 {
		// No observation of the log yet: unknown lag is not "caught up".
		return st
	}
	if lag := f.size - f.applied; lag > 0 {
		st.LagBytes = lag
	}
	st.Ready = st.LagBytes <= f.srv.lagBound()
	return st
}

func (srv *Server) lagBound() int64 {
	if srv.cfg.LagBytes > 0 {
		return srv.cfg.LagBytes
	}
	return DefaultLagBytes
}

// ErrAlreadyLeader is Promote's typed refusal: this process is already the
// leader (it was never a follower, or a racing Promote won). The HTTP layer
// maps it to 409 — a second failover request is a conflict with reality, not
// a server error.
var ErrAlreadyLeader = errors.New("server: already the leader")

// Promote turns the follower into the leader: stop tailing, replay whatever
// the tailer had not reached (taking ownership of the log — this truncates
// any torn tail, so the old leader must be dead), then start the serving
// loops and open the write path. See DESIGN.md §9 for the failover runbook.
//
// Promote is serialized: of two concurrent calls exactly one performs the
// transition, the other returns ErrAlreadyLeader. The check and the
// follow→leader flip both happen under promoteMu, so a second caller can
// never pass the follower check while the first is mid-transition and fire
// the serving loops twice.
func (srv *Server) Promote() error {
	srv.promoteMu.Lock()
	defer srv.promoteMu.Unlock()
	if !srv.follow.Load() {
		return ErrAlreadyLeader
	}
	f := srv.fol
	f.stopLoop()
	f.mu.Lock()
	failure, off := f.failure, f.applied
	f.mu.Unlock()
	if failure != nil {
		return fmt.Errorf("server: cannot promote past a halted replica: %w", failure)
	}
	srv.lockAll()
	w, info, err := wal.Open(srv.cfg.WALPath, off, srv.walOptions(), srv.applyRecovered)
	if err != nil {
		srv.unlockAll()
		return fmt.Errorf("server: promote: %w", err)
	}
	srv.wal.Store(w)
	srv.stateMu.Lock()
	srv.recovered = wal.RecoverInfo{
		Records:   int(f.records) + info.Records,
		ValidSize: info.ValidSize,
		Dropped:   info.Dropped,
		TailErr:   info.TailErr,
	}
	srv.stateMu.Unlock()
	if info.TailErr != nil {
		log.Printf("server: promote: WAL tail truncated at offset %d (%d bytes dropped): %v",
			info.ValidSize, info.Dropped, info.TailErr)
	}
	srv.finishRecovery()
	srv.unlockAll()
	srv.startLoops()
	srv.follow.Store(false)
	log.Printf("server: promoted to leader at WAL offset %d (%d records tailed + %d replayed)",
		info.ValidSize, f.records, info.Records)
	return nil
}

// handlePromote is POST /admin/promote — the failover switch.
func (srv *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if err := srv.Promote(); err != nil {
		if errors.Is(err, ErrAlreadyLeader) {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Role      string `json:"role"`
		WALOffset int64  `json:"wal_offset"`
	}{Role: srv.role(), WALOffset: srv.walOffset()})
}

type readyResponse struct {
	Ready  bool   `json:"ready"`
	Role   string `json:"role"`
	Reason string `json:"reason,omitempty"`
	Lag    int64  `json:"lag_bytes,omitempty"`
}

// handleReadyz is the readiness half of the liveness/readiness split:
// /healthz answers "is the process up", /readyz answers "should this
// process receive traffic". A follower is ready only when it has caught up
// to within the lag bound; a leader is ready unless it is closing or its
// WAL has failed.
func (srv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{Role: srv.role()}
	if srv.closed.Load() {
		resp.Reason = "closing"
	} else if srv.follow.Load() {
		st := srv.fol.stats()
		resp.Lag = st.LagBytes
		if st.Failure != "" {
			resp.Reason = "replica halted: " + st.Failure
		} else if !st.Ready {
			resp.Reason = fmt.Sprintf("replaying: %d bytes behind", st.LagBytes)
		} else {
			resp.Ready = true
		}
	} else if srv.walBroken() {
		resp.Reason = "write-ahead log failed"
	} else {
		resp.Ready = true
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (srv *Server) role() string {
	if srv.follow.Load() {
		return "follower"
	}
	return "leader"
}
