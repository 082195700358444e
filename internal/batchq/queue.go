// Package batchq is the bounded batching queue behind every serving loop:
// the server's per-shard micro-batchers and replay dispatcher, and the
// router's replay dispatcher. Any number of HTTP handlers push; exactly one
// consumer pops whole batches.
//
// It exists instead of a channel because a batching loop needs what a
// channel cannot give it: batches that form while the consumer is busy, an
// explicit drain signal, a producer hold that keeps a group of pushes in one
// batch, a busy window that keeps the queue from looking idle while a popped
// batch is still deciding, and a view of the queued items (the lease
// renewer's demand predictor).
package batchq

import (
	"errors"
	"sync"
)

// Errors Push reports; the HTTP layers map them onto 429 (with Retry-After)
// and 503.
var (
	ErrFull   = errors.New("batchq: queue full")
	ErrClosed = errors.New("batchq: queue closed")
)

// Queue is a bounded FIFO of T with batch-at-a-time consumption.
type Queue[T any] struct {
	mu      sync.Mutex
	nonIdle *sync.Cond
	items   []T
	head    int
	limit   int
	closed  bool
	// drainPending asks the consumer to flush the current partial batch; it
	// is a flag, not a counter, so repeated drain calls cannot make future
	// full batches flush early.
	drainPending bool
	// holds counts producers inside a Hold/Release pair; while it is
	// positive no partial batch leaves the queue.
	holds int
	// busy is true from PopBatch handing out a batch until the consumer's
	// Finish — it closes the window in which the queue looks empty while
	// decisions are still pending, which is what Idle (and so every drain
	// barrier) keys on.
	busy bool
}

// New returns a queue holding at most limit items.
func New[T any](limit int) *Queue[T] {
	q := &Queue[T]{limit: limit}
	q.nonIdle = sync.NewCond(&q.mu)
	return q
}

// Push appends v; ErrFull signals backpressure, ErrClosed a closing queue.
func (q *Queue[T]) Push(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items)-q.head >= q.limit {
		return ErrFull
	}
	q.items = append(q.items, v)
	q.nonIdle.Broadcast()
	return nil
}

// PopBatch blocks until it can hand the consumer a batch, then returns up to
// max items in FIFO order (appended to dst[:0]).
//
//   - A full batch (≥ max pending) returns immediately.
//   - partial (live mode): whatever is pending returns as soon as there is
//     one item — the consumer never waits for company, so a batch only forms
//     while the consumer is busy with the previous one.
//   - !partial (replay mode): a partial batch is returned only on an
//     explicit Drain or on Close — batch-by-count.
//
// While the queue is held (see Hold) no partial batch is returned, on drain
// or otherwise; Close flushes regardless. Returns nil after the queue is
// closed and emptied.
func (q *Queue[T]) PopBatch(max int, partial bool, dst []T) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		n := len(q.items) - q.head
		if n >= max {
			return q.pop(max, dst)
		}
		if q.closed {
			if n > 0 {
				return q.pop(n, dst)
			}
			return nil
		}
		if n == 0 {
			q.drainPending = false // drain of an empty queue: nothing to flush
		} else if q.holds == 0 && (partial || q.drainPending) {
			q.drainPending = false
			return q.pop(n, dst)
		}
		q.nonIdle.Wait()
	}
}

// pop removes the first n items and compacts the backing array once the
// consumed prefix dominates it, so a queue that never empties stays bounded;
// the caller holds q.mu.
func (q *Queue[T]) pop(n int, dst []T) []T {
	dst = append(dst[:0], q.items[q.head:q.head+n]...)
	q.head += n
	q.busy = true
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0:0], q.items[q.head:]...)
		q.head = 0
	}
	return dst
}

// Finish marks the last popped batch fully processed (replies delivered).
func (q *Queue[T]) Finish() {
	q.mu.Lock()
	q.busy = false
	q.mu.Unlock()
}

// Hold keeps partial batches in the queue until the matching Release, so a
// producer's run of pushes leaves as one batch (up to max) rather than being
// split by a consumer that pops the first push alone. Holds nest.
func (q *Queue[T]) Hold() {
	q.mu.Lock()
	q.holds++
	q.mu.Unlock()
}

// Release ends one Hold and wakes the consumer once no hold remains.
func (q *Queue[T]) Release() {
	q.mu.Lock()
	q.holds--
	if q.holds == 0 {
		q.nonIdle.Broadcast()
	}
	q.mu.Unlock()
}

// Depth returns the number of queued items.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Idle reports an empty queue with no batch in flight.
func (q *Queue[T]) Idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)-q.head == 0 && !q.busy
}

// Each calls fn on every queued item in FIFO order without removing it — the
// renewal demand snapshot. fn runs under the queue lock, so it must only
// read the item.
func (q *Queue[T]) Each(fn func(*T)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.items); i++ {
		fn(&q.items[i])
	}
}

// Drain asks the consumer to flush the current partial batch.
func (q *Queue[T]) Drain() {
	q.mu.Lock()
	q.drainPending = true
	q.nonIdle.Broadcast()
	q.mu.Unlock()
}

// TakeAll removes and returns everything still queued — the shutdown
// backstop. Only meaningful after Close and after the consumer has exited:
// whatever is left is work no consumer will ever pop, and each waiting
// submitter must be released.
func (q *Queue[T]) TakeAll() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append([]T(nil), q.items[q.head:]...)
	q.items = q.items[:0]
	q.head = 0
	return out
}

// Close wakes the consumer to flush whatever is pending and exit.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.nonIdle.Broadcast()
	q.mu.Unlock()
}
