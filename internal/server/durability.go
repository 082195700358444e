package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// checkpointVersion guards the checkpoint file format.
const checkpointVersion = 1

// bidOverride records one in-place bid replacement so a warm boot can
// reapply it before restoring the engine (bids shape the weight table the
// restored decisions were made under).
type bidOverride struct {
	User int   `json:"user"`
	Bids []int `json:"bids"`
}

// checkpointFile is the atomic checkpoint payload: engine state, the user
// lifecycle array, the bid overrides, and the WAL offset the snapshot is
// consistent with — boot is load this, then replay the WAL suffix from
// WALOffset.
type checkpointFile struct {
	Version   int                `json:"version"`
	WALOffset int64              `json:"wal_offset"`
	Engine    *shard.EngineState `json:"engine"`
	States    []uint8            `json:"states"`
	Overrides []bidOverride      `json:"overrides,omitempty"`
}

// leaseError unwraps a *shard.LeaseError — the one engine error the live
// path counts and serves through, so replay must too.
func leaseError(err error) (*shard.LeaseError, bool) {
	var le *shard.LeaseError
	if errors.As(err, &le) {
		return le, true
	}
	return nil, false
}

// walWriter returns the durability log, nil when none is open (no
// Config.WALPath, or a follower before Promote).
func (srv *Server) walWriter() *wal.Writer { return srv.wal.Load() }

// walAppend frames one op into the log. Failures are counted and sticky:
// the server stops accepting writes (503) rather than acking decisions it
// cannot make durable.
func (srv *Server) walAppend(op wal.Op) {
	w := srv.walWriter()
	if w == nil {
		return
	}
	if _, err := w.Append(op); err != nil {
		srv.noteWALError(err)
	}
}

// walCommit flushes (and fsyncs, per policy) everything appended so far.
// The serving loops call it after a micro-batch's decisions and before the
// replies, so an acked decision is at least flushed — and durable under
// SyncAlways.
func (srv *Server) walCommit() {
	w := srv.walWriter()
	if w == nil {
		return
	}
	if err := w.Commit(); err != nil {
		srv.noteWALError(err)
	}
}

func (srv *Server) noteWALError(err error) {
	if srv.obs.walErrors.Add(1) == 1 {
		log.Printf("server: WAL failed, rejecting writes: %v", err)
	}
}

// walBroken reports a sticky WAL failure: durability can no longer be
// promised, so the write path answers 503 until the operator intervenes.
func (srv *Server) walBroken() bool {
	return srv.walWriter() != nil && srv.obs.walErrors.Load() > 0
}

// nowMillis stamps WAL records; purely informational (replay ignores it).
func nowMillis() int64 { return time.Now().UnixMilli() }

// bootDurable is the leader's warm-boot path: load the checkpoint (if any),
// replay the WAL suffix through the engine, truncate any torn/corrupt tail,
// and open the log for appending. Called from New before the serving loops
// start, so no locking is needed.
func (srv *Server) bootDurable() error {
	startOff, err := srv.restoreCheckpoint()
	if err != nil {
		return err
	}
	w, info, err := wal.Open(srv.cfg.WALPath, startOff, srv.walOptions(), srv.applyRecovered)
	if err != nil {
		return fmt.Errorf("server: WAL recovery: %w", err)
	}
	srv.wal.Store(w)
	srv.recovered = info
	if info.TailErr != nil {
		log.Printf("server: WAL tail truncated at offset %d (%d bytes dropped): %v",
			info.ValidSize, info.Dropped, info.TailErr)
	}
	if info.Records > 0 || startOff > 0 {
		log.Printf("server: warm boot: checkpoint at offset %d + %d WAL records replayed", startOff, info.Records)
	}
	srv.finishRecovery()
	return nil
}

func (srv *Server) walOptions() wal.Options {
	// The sync hook runs under the writer's mutex; a histogram observation
	// is a few atomic ops, well inside that budget.
	return wal.Options{Sync: srv.cfg.WALSync, SyncInterval: srv.cfg.WALSyncInterval,
		ObserveSync: srv.obs.walFsync.ObserveDuration}
}

// restoreCheckpoint loads and installs the checkpoint, returning the WAL
// offset to replay from (0 when there is no checkpoint yet).
func (srv *Server) restoreCheckpoint() (int64, error) {
	if srv.cfg.CheckpointPath == "" {
		return 0, nil
	}
	raw, err := os.ReadFile(srv.cfg.CheckpointPath)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("server: reading checkpoint: %w", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(raw, &cp); err != nil {
		return 0, fmt.Errorf("server: decoding checkpoint %s: %w", srv.cfg.CheckpointPath, err)
	}
	if cp.Version != checkpointVersion {
		return 0, fmt.Errorf("server: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if len(cp.States) != srv.in.NumUsers() {
		return 0, fmt.Errorf("server: checkpoint covers %d users, instance has %d", len(cp.States), srv.in.NumUsers())
	}
	// Bid overrides first: the restored decisions were made under these
	// weights, and the engine validates sets against current bids downstream.
	for _, ov := range cp.Overrides {
		if ov.User < 0 || ov.User >= srv.in.NumUsers() {
			return 0, fmt.Errorf("server: checkpoint bid override for unknown user %d", ov.User)
		}
		srv.eng.SetBids(ov.User, ov.Bids)
		srv.overrides[ov.User] = append([]int(nil), ov.Bids...)
	}
	if err := srv.eng.RestoreState(cp.Engine); err != nil {
		return 0, fmt.Errorf("server: restoring engine checkpoint: %w", err)
	}
	copy(srv.state, cp.States)
	// The live-bound shadow must lose every decided user (even empty
	// grants): the States array is the decided-set record.
	if srv.eng.BoundEnabled() {
		for u, st := range cp.States {
			if st == stateDecided {
				srv.eng.NoteRestored(u, cp.Engine.Sets[u])
			}
		}
	}
	return cp.WALOffset, nil
}

// applyRecovered replays one WAL record during boot: decode, apply to the
// engine, and advance the user lifecycle the way the live path would have.
func (srv *Server) applyRecovered(payload []byte) error {
	op, err := wal.DecodeOp(payload)
	if err != nil {
		return err
	}
	return srv.applyOp(op)
}

// applyOp applies one decoded op to the engine and the server-level state.
// Shared by boot-time recovery (single-threaded) and the follower's tailer
// (which holds every shard lock around it; stateMu still matters there
// because the read handlers are already live).
func (srv *Server) applyOp(op wal.Op) error {
	if err := srv.eng.Apply(op); err != nil {
		if _, ok := leaseError(err); ok {
			// the live path counts lease violations and serves on; replay
			// must reproduce, not diverge
			srv.obs.leaseErrors.Inc()
			return nil
		}
		return err
	}
	srv.stateMu.Lock()
	switch op.Kind {
	case wal.OpBid:
		srv.state[op.User] = stateDecided
	case wal.OpBatch:
		for _, u := range op.Users {
			srv.state[u] = stateDecided
		}
	case wal.OpCancel:
		srv.state[op.User] = stateCancelled
	case wal.OpSetBids:
		srv.overrides[op.User] = append([]int(nil), op.Bids...)
	case wal.OpExport:
		// Exported users left this shard; their lifecycle restarts at the
		// adopting shard (carried in its OpAdopt record).
		for _, u := range op.Users {
			srv.state[u] = stateNone
		}
	case wal.OpAdopt:
		for i, u := range op.Users {
			if op.States != nil {
				srv.state[u] = op.States[i]
			} else if len(op.Sets[i]) > 0 {
				srv.state[u] = stateDecided
			}
		}
	}
	srv.stateMu.Unlock()
	return nil
}

// finishRecovery folds the recovered decisions into the live-bound shadow
// (one re-solve instead of one per replayed batch).
func (srv *Server) finishRecovery() {
	if srv.eng.BoundEnabled() {
		srv.eng.UpdateBound()
	}
}

// Checkpoint atomically writes the serving state to Config.CheckpointPath.
// It quiesces the engine (all shard locks), fsyncs the WAL so the recorded
// offset is durable, snapshots, and replaces the checkpoint file via
// write-temp + rename — a crash mid-checkpoint leaves the previous one
// intact. Queued-but-undecided requests are simply not in the snapshot;
// their decisions will be WAL records past the recorded offset.
func (srv *Server) Checkpoint() error {
	if srv.cfg.CheckpointPath == "" {
		return fmt.Errorf("server: no checkpoint path configured")
	}
	if srv.follow.Load() {
		return fmt.Errorf("server: follower does not checkpoint")
	}
	srv.lockAll()
	defer srv.unlockAll()
	var off int64
	if w := srv.walWriter(); w != nil {
		if err := w.Sync(); err != nil {
			return fmt.Errorf("server: checkpoint WAL sync: %w", err)
		}
		off = w.Offset()
	}
	cp := checkpointFile{
		Version:   checkpointVersion,
		WALOffset: off,
		Engine:    srv.eng.CheckpointState(),
	}
	srv.stateMu.Lock()
	cp.States = append([]uint8(nil), srv.state...)
	srv.stateMu.Unlock()
	for u, bids := range srv.overrides {
		cp.Overrides = append(cp.Overrides, bidOverride{User: u, Bids: bids})
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(srv.cfg.CheckpointPath, raw); err != nil {
		return fmt.Errorf("server: writing checkpoint: %w", err)
	}
	return nil
}

// handleCheckpoint is POST /admin/checkpoint: drain, then snapshot.
func (srv *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if srv.cfg.CheckpointPath == "" {
		httpError(w, http.StatusConflict, "no checkpoint path configured")
		return
	}
	if srv.follow.Load() {
		httpError(w, http.StatusConflict, "follower does not checkpoint")
		return
	}
	if !srv.Drain(10 * time.Second) {
		httpError(w, http.StatusServiceUnavailable, "drain timed out")
		return
	}
	if err := srv.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Checkpoint string `json:"checkpoint"`
		WALOffset  int64  `json:"wal_offset"`
	}{Checkpoint: srv.cfg.CheckpointPath, WALOffset: srv.walOffset()})
}

func (srv *Server) walOffset() int64 {
	w := srv.walWriter()
	if w == nil {
		return 0
	}
	return w.Offset()
}

// WALStats is the /statsz view of the durability layer.
type WALStats struct {
	Path      string      `json:"path"`
	Sync      string      `json:"sync"`
	Offset    int64       `json:"offset"`
	Appends   int64       `json:"appends"`
	Bytes     int64       `json:"bytes"`
	Syncs     int64       `json:"syncs"`
	Errors    int64       `json:"errors"`
	Append    Percentiles `json:"append"` // commit latency amortized per decision
	Recovered int         `json:"recovered_records"`
	Truncated int64       `json:"truncated_bytes"`
}

func (srv *Server) walStats() *WALStats {
	w := srv.walWriter()
	if w == nil {
		return nil
	}
	st := w.Stats()
	srv.stateMu.Lock()
	rec := srv.recovered
	srv.stateMu.Unlock()
	return &WALStats{
		Path:      srv.cfg.WALPath,
		Sync:      srv.cfg.WALSync.String(),
		Offset:    w.Offset(),
		Appends:   st.Appends,
		Bytes:     st.Bytes,
		Syncs:     st.Syncs,
		Errors:    srv.obs.walErrors.Load(),
		Append:    percentiles(srv.obs.walCommit),
		Recovered: rec.Records,
		Truncated: rec.Dropped,
	}
}
