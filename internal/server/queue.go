package server

import "time"

// request is one queued bid submission awaiting its micro-batch. events,
// wait and decide are consumer-side scratch: the shard loop decides the
// whole batch first, commits the WAL, and only then replies — so each
// decision parks here between the engine call and its delivery.
type request struct {
	user     int
	enqueued time.Time
	reply    chan reply // buffered(1); nil for fire-and-forget submissions

	events []int
	wait   time.Duration
	decide time.Duration
}

// reply is the decision delivered back to a waiting submitter. shutdown
// marks the no-decision reply Close delivers to requests the consumers never
// reached — the HTTP layer answers 503 instead of an assignment.
type reply struct {
	events   []int
	epoch    int
	wait     time.Duration // time spent queued before processing began
	shutdown bool
}
