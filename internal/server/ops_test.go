package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/shard"
)

// rawDo sends one request and returns the status and the body as sent.
func (c *client) rawDo(method, path string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// envelope posts ops to /cluster/ops and returns one result per op.
func (c *client) envelope(ops ...ClusterOp) []ClusterOpResult {
	c.t.Helper()
	var resp ClusterOpsResponse
	if code := c.do("POST", "/cluster/ops", ClusterOpsRequest{Ops: ops}, &resp).StatusCode; code != http.StatusOK {
		c.t.Fatalf("envelope: HTTP %d", code)
	}
	if len(resp.Results) != len(ops) {
		c.t.Fatalf("envelope of %d ops answered %d results", len(ops), len(resp.Results))
	}
	return resp.Results
}

func bidOp(u int, wait bool) ClusterOp {
	return ClusterOp{Path: "/v1/bid", Body: json.RawMessage(fmt.Sprintf(`{"user":%d,"wait":%t}`, u, wait))}
}

func cancelOp(u int) ClusterOp {
	return ClusterOp{Path: "/v1/cancel", Body: json.RawMessage(fmt.Sprintf(`{"user":%d}`, u))}
}

func readOp(u int) ClusterOp {
	return ClusterOp{Path: "/v1/assignment?user=" + strconv.Itoa(u)}
}

// TestClusterOpsMixedEnvelope pins that an envelope answers every op as the
// direct request would: status, Retry-After and body, across 200, 202, 400,
// 409, 421 and 429 in one envelope.
func TestClusterOpsMixedEnvelope(t *testing.T) {
	in := testInstance(t, 41, 60, 10)
	seed := int64(7)
	_, c := startClusterShard(t, in, 2, 0, Config{
		Shard:      shard.Options{Seed: seed, Batch: 16},
		MicroBatch: 8,
		QueueDepth: 1,
	})
	owned, foreign := pickUsers(in, seed, 2, 0, 4)

	first := c.envelope(bidOp(owned[0], true))[0]
	var bid bidResponse
	if err := json.Unmarshal(first.Body, &bid); err != nil || first.Status != http.StatusOK || bid.User != owned[0] {
		t.Fatalf("waiting bid: HTTP %d %s (%v)", first.Status, first.Body, err)
	}

	ops := []ClusterOp{
		bidOp(owned[1], false), // 202: the one queue slot
		bidOp(owned[2], true),  // 429: the held queue is full until the release
		bidOp(owned[0], true),  // 409: already decided
		cancelOp(owned[3]),     // 409: nothing to cancel
		readOp(owned[0]),       // 200
		bidOp(foreign[0], true),
		{Path: "/v1/bid", Body: json.RawMessage(`{"user":-1}`)},
		{Path: "/admin/drain"},
	}
	res := c.envelope(ops...)
	want := []int{http.StatusAccepted, http.StatusTooManyRequests, http.StatusConflict, http.StatusConflict,
		http.StatusOK, http.StatusMisdirectedRequest, http.StatusBadRequest, http.StatusBadRequest}
	for i, r := range res {
		if r.Status != want[i] {
			t.Errorf("op %d (%s %s): HTTP %d %s, want %d", i, ops[i].Path, ops[i].Body, r.Status, r.Body, want[i])
		}
	}
	if res[1].RetryAfter != "1" {
		t.Errorf("429 carried Retry-After %q, want \"1\"", res[1].RetryAfter)
	}
	if res[0].RetryAfter != "" {
		t.Errorf("202 carried Retry-After %q", res[0].RetryAfter)
	}
	// The ops that do not change state answer byte for byte what the same
	// request sent directly answers now.
	for _, i := range []int{2, 3, 4, 5, 6} {
		method := http.MethodPost
		if ops[i].Body == nil {
			method = http.MethodGet
		}
		code, body := c.rawDo(method, ops[i].Path, ops[i].Body)
		if code != res[i].Status || !bytes.Equal(bytes.TrimSpace(body), res[i].Body) {
			t.Errorf("op %d: envelope answered %d %s, direct %d %s", i, res[i].Status, res[i].Body, code, body)
		}
	}
}

// TestClusterOpsOneMicroBatch pins the envelope as the batching boundary.
// The shard loop is idle whenever an envelope arrives, so without the hold
// across the submit loop it would pop the first bid alone and split the
// envelope; with it, each envelope's bids decide in exactly one micro-batch.
// Each bid body carries 32 KiB of padding the decoder skips: submitting a
// bid then takes long enough for the woken loop to reach the queue between
// two bids, so a missing hold fails here on any multi-core run, not only by
// scheduling luck.
func TestClusterOpsOneMicroBatch(t *testing.T) {
	pad := strings.Repeat("x", 32<<10)
	const envelopes, k = 20, 5
	in := testInstance(t, 43, 400, 20)
	seed := int64(7)
	srv, c := startClusterShard(t, in, 2, 1, Config{
		Shard:      shard.Options{Seed: seed, Batch: 16},
		MicroBatch: 8,
	})
	owned, _ := pickUsers(in, seed, 2, 1, envelopes*k)
	if len(owned) < envelopes*k {
		t.Fatalf("fixture owns %d users, want %d", len(owned), envelopes*k)
	}
	for e := 0; e < envelopes; e++ {
		var ops []ClusterOp
		for _, u := range owned[e*k : (e+1)*k] {
			body := fmt.Sprintf(`{"user":%d,"pad":%q}`, u, pad)
			ops = append(ops, ClusterOp{Path: "/v1/bid", Body: json.RawMessage(body)})
		}
		for i, r := range c.envelope(ops...) {
			if r.Status != http.StatusOK {
				t.Fatalf("envelope %d, bid %d: HTTP %d %s", e, i, r.Status, r.Body)
			}
		}
	}
	// The batch counter moves after the replies leave; let the loop finish.
	if !srv.Drain(5 * time.Second) {
		t.Fatal("shard loop did not go idle")
	}
	if st := srv.Stats(); st.Epochs != envelopes || st.Decided != envelopes*k {
		t.Fatalf("%d envelopes of %d bids decided in %d micro-batches (%d decided), want one each",
			envelopes, k, st.Epochs, st.Decided)
	}
}

// TestClusterOpsAllowList pins that an envelope carries only /v1/bid,
// /v1/cancel and single-user reads: anything else answers 400 and never runs
// its handler — here a /cluster/demand that would freeze the shard and a
// full dump.
func TestClusterOpsAllowList(t *testing.T) {
	in := testInstance(t, 45, 40, 8)
	srv, c := startClusterShard(t, in, 2, 0, Config{
		Shard: shard.Options{Seed: 7, Batch: 16},
	})
	paths := []string{
		"/cluster/demand", "/cluster/ops", "/admin/drain", "/v1/load",
		"/v1/assignment", "/v1/assignment?user=", "/v1/bid?user=1",
		"/v1/assignment/../../cluster/demand?user=1", "/v1/assignment?event=1",
		"http://elsewhere/v1/bid", "http://elsewhere/v1/assignment?user=1",
	}
	var ops []ClusterOp
	for _, p := range paths {
		ops = append(ops, ClusterOp{Path: p, Body: json.RawMessage(`{}`)})
	}
	for i, r := range c.envelope(ops...) {
		if r.Status != http.StatusBadRequest {
			t.Errorf("path %q: HTTP %d %s, want 400", paths[i], r.Status, r.Body)
		}
	}
	srv.gate.mu.Lock()
	frozen := srv.gate.frozen
	srv.gate.mu.Unlock()
	if frozen {
		t.Fatal("an envelope op reached /cluster/demand and froze the shard")
	}
	if code := c.status("GET", "/cluster/ops", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /cluster/ops: %d, want 405", code)
	}

	// A single-process server has no /cluster/ops at all.
	_, _, single := startServer(t, in, Config{Shard: shard.Options{Shards: 2, Batch: 8, Seed: 1}})
	if code := single.status("POST", "/cluster/ops", ClusterOpsRequest{}); code != http.StatusNotFound {
		t.Fatalf("POST /cluster/ops on a single-process server: %d, want 404", code)
	}
}
