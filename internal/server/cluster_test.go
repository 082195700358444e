package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/batchq"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/shard"
)

// TestRollbackQueuedGuard pins the rollback race fix: undoing a failed
// enqueue's optimistic stateQueued claim must not clobber a state transition
// that landed while the state lock was dropped.
func TestRollbackQueuedGuard(t *testing.T) {
	srv := &Server{state: make([]uint8, 2)}

	// normal path: still queued, so the pre-submit snapshot is restored
	srv.state[0] = stateQueued
	srv.rollbackQueued(0, stateCancelled)
	if srv.state[0] != stateCancelled {
		t.Fatalf("plain rollback: state %d, want cancelled", srv.state[0])
	}

	// raced path: a concurrent duplicate won the slot and was decided; the
	// loser's rollback must leave that decision alone
	srv.state[1] = stateDecided
	srv.rollbackQueued(1, stateNone)
	if srv.state[1] != stateDecided {
		t.Fatalf("raced rollback clobbered a decision: state %d", srv.state[1])
	}
}

// TestCloseReleasesWaiters pins the shutdown-waiter contract: every accepted
// wait:true submission in flight at Close gets an answer — its decision when
// the final flush reaches it, 503 otherwise — and never parks forever.
func TestCloseReleasesWaiters(t *testing.T) {
	in := testInstance(t, 21, 40, 8)
	srv, _, c := startServer(t, in, Config{
		// Replay with a batch far larger than the submissions: nothing
		// flushes until Close's final drain.
		Shard:  shard.Options{Shards: 2, Batch: 1000, Seed: 1},
		Replay: true,
	})
	const n = 6
	codes := make(chan int, n)
	for u := 0; u < n; u++ {
		go func(u int) {
			codes <- c.status("POST", "/v1/bid", bidRequest{User: u})
		}(u)
	}
	// Wait until all n are queued (accepted), then shut down.
	deadline := time.Now().Add(5 * time.Second)
	for srv.queues[0].Depth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions queued", srv.queues[0].Depth(), n)
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	for i := 0; i < n; i++ {
		select {
		case code := <-codes:
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Fatalf("waiter got %d, want 200 or 503", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d still parked after Close", i)
		}
	}
}

// TestCloseBackstopShutdownReply exercises the takeAll backstop directly: a
// request stranded in a queue after the consumers exited (the race window the
// fix closes) must receive a shutdown reply from Close, not hang.
func TestCloseBackstopShutdownReply(t *testing.T) {
	in := testInstance(t, 23, 20, 6)
	srv, err := New(in, Config{Shard: shard.Options{Shards: 1, Batch: 8, Seed: 1}, Replay: true})
	if err != nil {
		t.Fatal(err)
	}
	// Retire the consumer cleanly, then swap in a queue holding a request no
	// consumer will ever pop — simulating the pop-to-reply window a dying
	// consumer leaves.
	srv.queues[0].Close()
	srv.wg.Wait()
	stranded := request{user: 3, enqueued: time.Now(), reply: make(chan reply, 1)}
	orphan := batchq.New[request](8)
	if err := orphan.Push(stranded); err != nil {
		t.Fatal(err)
	}
	srv.queues[0] = orphan

	srv.Close()
	select {
	case rep := <-stranded.reply:
		if !rep.shutdown {
			t.Fatalf("stranded request got %+v, want shutdown reply", rep)
		}
	default:
		t.Fatal("Close left the stranded request without a reply")
	}
}

// startClusterShard boots one shard process of a width-wide cluster.
func startClusterShard(t testing.TB, in *model.Instance, width, index int, cfg Config) (*Server, *client) {
	t.Helper()
	cfg.Shard.Shards = 1
	cfg.Shard.ClusterShards = width
	cfg.Shard.ClusterIndex = index
	srv, _, c := startServer(t, in, cfg)
	return srv, c
}

// pickUsers splits the first users of the instance by cluster ownership.
func pickUsers(in *model.Instance, seed int64, width, index, n int) (owned, foreign []int) {
	for u := 0; u < in.NumUsers() && (len(owned) < n || len(foreign) < n); u++ {
		if shard.ShardOf(seed, u, width) == index {
			if len(owned) < n {
				owned = append(owned, u)
			}
		} else if len(foreign) < n {
			foreign = append(foreign, u)
		}
	}
	return owned, foreign
}

// TestClusterShardSurface exercises a cluster shard end to end: ownership
// 421s, the two-phase renewal wire protocol, the freeze watchdog, and the
// replay batch endpoint.
func TestClusterShardSurface(t *testing.T) {
	in := testInstance(t, 31, 80, 10)
	const width, index = 2, 0
	seed := int64(7)
	srv, c := startClusterShard(t, in, width, index, Config{
		Shard: shard.Options{Seed: seed, Batch: 16},
	})
	owned, foreign := pickUsers(in, seed, width, index, 4)

	var h healthResponse
	c.do("GET", "/healthz", nil, &h)
	if h.Cluster == nil || h.Cluster.Shards != width || h.Cluster.Index != index {
		t.Fatalf("healthz cluster info: %+v", h.Cluster)
	}

	// ownership gate: 421 for foreign users on every per-user surface
	if code := c.status("POST", "/v1/bid", bidRequest{User: foreign[0]}); code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign bid: %d, want 421", code)
	}
	if code := c.status("POST", "/v1/cancel", cancelRequest{User: foreign[0]}); code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign cancel: %d, want 421", code)
	}
	if code := c.status("GET", fmt.Sprintf("/v1/assignment?user=%d", foreign[0]), nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign assignment: %d, want 421", code)
	}
	if code := c.status("POST", "/v1/bid", bidRequest{User: owned[0]}); code != http.StatusOK {
		t.Fatalf("owned bid: %d", code)
	}

	// two-phase renewal: demand freezes, a second demand conflicts, the
	// install lands under the freeze and bumps the renewal counter
	var d ClusterDemandResponse
	if code := c.do("POST", "/cluster/demand", struct{}{}, &d).StatusCode; code != http.StatusOK {
		t.Fatalf("demand: %d", code)
	}
	if len(d.Loads) != in.NumEvents() || d.Renewals != 0 {
		t.Fatalf("demand payload: %d loads, %d renewals", len(d.Loads), d.Renewals)
	}
	if code := c.status("POST", "/cluster/demand", struct{}{}); code != http.StatusConflict {
		t.Fatalf("double demand: %d, want 409", code)
	}
	var lr ClusterLeaseResponse
	if code := c.do("POST", "/cluster/lease", ClusterLeaseRequest{Budget: d.Loads}, &lr).StatusCode; code != http.StatusOK {
		t.Fatalf("lease install: %d", code)
	}
	if lr.Renewals != 1 {
		t.Fatalf("renewals after install: %d, want 1", lr.Renewals)
	}
	// install without a freeze: 409
	if code := c.status("POST", "/cluster/lease", ClusterLeaseRequest{Budget: d.Loads}); code != http.StatusConflict {
		t.Fatalf("unfrozen install: %d, want 409", code)
	}
	// an undercutting budget (below current load) is refused and thaws
	c.do("POST", "/cluster/demand", struct{}{}, &d)
	bad := append([]int(nil), d.Loads...)
	lowered := false
	for v := range bad {
		if bad[v] > 0 {
			bad[v]--
			lowered = true
			break
		}
	}
	if lowered {
		if code := c.status("POST", "/cluster/lease", ClusterLeaseRequest{Budget: bad}); code != http.StatusConflict {
			t.Fatalf("undercutting install: %d, want 409", code)
		}
	} else {
		c.status("POST", "/cluster/abort", struct{}{})
	}
	// abort with no freeze is a no-op
	var ab struct {
		Released bool `json:"released"`
	}
	c.do("POST", "/cluster/abort", struct{}{}, &ab)
	if ab.Released {
		t.Fatal("abort released a freeze that did not exist")
	}

	// replay dispatch: a fresh owned user decides; a retry conflicts
	batchUsers := []int{owned[1], owned[2]}
	var br ClusterBatchResponse
	if code := c.do("POST", "/cluster/batch", ClusterBatchRequest{Users: batchUsers}, &br).StatusCode; code != http.StatusOK {
		t.Fatalf("cluster batch: %d", code)
	}
	if len(br.Decisions) != len(batchUsers) {
		t.Fatalf("batch decisions: %d for %d users", len(br.Decisions), len(batchUsers))
	}
	if code := c.status("POST", "/cluster/batch", ClusterBatchRequest{Users: batchUsers}); code != http.StatusConflict {
		t.Fatalf("replayed batch: %d, want 409", code)
	}
	if code := c.status("POST", "/cluster/batch", ClusterBatchRequest{Users: []int{foreign[1]}}); code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign batch: %d, want 421", code)
	}

	st := srv.Stats()
	if st.Misrouted == 0 {
		t.Error("misrouted_421 counter never moved")
	}
	if st.LeaseRenewals != 1 {
		t.Errorf("lease renewals %d, want 1", st.LeaseRenewals)
	}
}

// TestClusterFreezeWatchdog pins the thaw: a router that dies between demand
// and lease must not wedge the shard — the watchdog releases the locks after
// freezeTimeout and the late install is refused.
func TestClusterFreezeWatchdog(t *testing.T) {
	in := testInstance(t, 33, 40, 8)
	srv, c := startClusterShard(t, in, 2, 0, Config{
		Shard:         shard.Options{Seed: 7, Batch: 16},
		freezeTimeout: 30 * time.Millisecond,
	})
	var d ClusterDemandResponse
	if code := c.do("POST", "/cluster/demand", struct{}{}, &d).StatusCode; code != http.StatusOK {
		t.Fatalf("demand: %d", code)
	}
	// Simulate the dead router: no install. The watchdog must thaw.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.gate.mu.Lock()
		frozen := srv.gate.frozen
		srv.gate.mu.Unlock()
		if !frozen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("freeze never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The late install is refused; serving works again.
	if code := c.status("POST", "/cluster/lease", ClusterLeaseRequest{Budget: d.Loads}); code != http.StatusConflict {
		t.Fatalf("install after expiry: %d, want 409", code)
	}
	owned, _ := pickUsers(in, 7, 2, 0, 1)
	if code := c.status("POST", "/v1/bid", bidRequest{User: owned[0]}); code != http.StatusOK {
		t.Fatalf("bid after thaw: %d", code)
	}
}

// TestClusterMigrationWire moves a decided user between two shard processes
// over /cluster/export + /cluster/adopt and checks ownership, assignment and
// seat accounting all travel.
func TestClusterMigrationWire(t *testing.T) {
	in := testInstance(t, 35, 60, 10)
	seed := int64(7)
	srv0, c0 := startClusterShard(t, in.Clone(), 2, 0, Config{
		Shard: shard.Options{Seed: seed, Batch: 16},
	})
	srv1, c1 := startClusterShard(t, in.Clone(), 2, 1, Config{
		Shard: shard.Options{Seed: seed, Batch: 16},
	})
	owned, _ := pickUsers(in, seed, 2, 0, 3)
	mover := owned[0]

	var bid bidResponse
	if code := c0.do("POST", "/v1/bid", bidRequest{User: mover}, &bid).StatusCode; code != http.StatusOK {
		t.Fatalf("bid: %d", code)
	}
	srv0.Drain(5 * time.Second)

	var mig ClusterMigration
	if code := c0.do("POST", "/cluster/export", ClusterExportRequest{Users: []int{mover}}, &mig).StatusCode; code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}
	if len(mig.Users) != 1 || len(mig.Sets[0]) != len(bid.Events) {
		t.Fatalf("export payload: %+v (decision was %v)", mig, bid.Events)
	}
	if code := c1.do("POST", "/cluster/adopt", mig, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("adopt: %d", code)
	}

	// source no longer owns the user; target serves their assignment
	if code := c0.status("GET", fmt.Sprintf("/v1/assignment?user=%d", mover), nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("source after export: %d, want 421", code)
	}
	var asg assignmentResponse
	if code := c1.do("GET", fmt.Sprintf("/v1/assignment?user=%d", mover), nil, &asg).StatusCode; code != http.StatusOK {
		t.Fatalf("target assignment: %d", code)
	}
	if len(asg.Events) != len(bid.Events) || !asg.Decided {
		t.Fatalf("migrated assignment %+v, decision was %v", asg, bid.Events)
	}
	// seats travelled: the target's loads grew by the decision, the source's
	// shrank back
	for _, v := range bid.Events {
		if l := srv1.eng.EventLoad(v); l < 1 {
			t.Errorf("target load for event %d is %d after adopting a seat", v, l)
		}
		if l := srv0.eng.EventLoad(v); l != 0 {
			t.Errorf("source still holds load %d for event %d", l, v)
		}
	}
	// the user can cancel at the target (state travelled too)
	if code := c1.status("POST", "/v1/cancel", cancelRequest{User: mover}); len(bid.Events) > 0 && code != http.StatusOK {
		t.Fatalf("cancel at target: %d", code)
	}
}

// TestPromoteAlreadyLeader pins the double-promote fix: promoting a process
// that is already the leader is a 409 conflict, not a 500, and concurrent
// promotes of a leader all agree.
func TestPromoteAlreadyLeader(t *testing.T) {
	in := testInstance(t, 37, 30, 6)
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{Shards: 2, Batch: 8, Seed: 1},
	})
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = c.status("POST", "/admin/promote", nil)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusConflict {
			t.Errorf("promote %d on a leader: %d, want 409", i, code)
		}
	}
	if err := srv.Promote(); err != ErrAlreadyLeader {
		t.Fatalf("Promote on leader: %v, want ErrAlreadyLeader", err)
	}
	// the leader still serves after the refused promotes
	if code := c.status("POST", "/v1/bid", bidRequest{User: 1}); code != http.StatusOK {
		t.Fatalf("bid after refused promote: %d", code)
	}
}
