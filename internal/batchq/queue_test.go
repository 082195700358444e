package batchq

import (
	"testing"
	"time"
)

type item struct {
	user int
	at   time.Time
}

func itemAt(it *item) time.Time { return it.at }

func mk(u int) item { return item{user: u, at: time.Now()} }

// TestQueue unit-tests the bounded queue: batching, deadline flush, drain,
// close and backpressure.
func TestQueue(t *testing.T) {
	q := New(3, itemAt)
	if err := q.Push(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(3)); err != ErrFull {
		t.Fatalf("overfull push: %v, want ErrFull", err)
	}
	if d := q.Depth(); d != 3 {
		t.Fatalf("depth %d, want 3", d)
	}
	batch := q.PopBatch(2, 0, nil)
	if len(batch) != 2 || batch[0].user != 0 || batch[1].user != 1 {
		t.Fatalf("PopBatch: %v", batch)
	}
	q.Finish()
	var queued []int
	q.Each(func(it *item) { queued = append(queued, it.user) })
	if len(queued) != 1 || queued[0] != 2 {
		t.Fatalf("Each: %v", queued)
	}

	// deadline flush: a partial batch is released after ~wait
	start := time.Now()
	batch = q.PopBatch(5, time.Millisecond, batch)
	if len(batch) != 1 || batch[0].user != 2 {
		t.Fatalf("deadline flush: %v", batch)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline flush waited far too long")
	}
	q.Finish()

	// drain flush from another goroutine
	done := make(chan []item, 1)
	go func() { done <- q.PopBatch(5, 0, nil) }()
	time.Sleep(time.Millisecond)
	q.Push(mk(9))
	q.Drain()
	got := <-done
	if len(got) != 1 || got[0].user != 9 {
		t.Fatalf("drain flush: %v", got)
	}
	q.Finish()
	if !q.Idle() {
		t.Fatal("queue not idle after Finish")
	}

	// close flushes the remainder then returns nil
	q.Push(mk(4))
	q.Close()
	if got := q.PopBatch(5, 0, nil); len(got) != 1 || got[0].user != 4 {
		t.Fatalf("close flush: %v", got)
	}
	if got := q.PopBatch(5, 0, nil); got != nil {
		t.Fatalf("closed queue returned %v", got)
	}
	if err := q.Push(mk(5)); err != ErrClosed {
		t.Fatalf("push after close: %v", err)
	}
}

// TestQueueTakeAll unit-tests the shutdown backstop: TakeAll empties the
// queue and returns everything a consumer never popped.
func TestQueueTakeAll(t *testing.T) {
	q := New(8, itemAt)
	for u := 0; u < 3; u++ {
		if err := q.Push(mk(u)); err != nil {
			t.Fatal(err)
		}
	}
	q.PopBatch(1, 0, nil) // consume one; two remain
	q.Finish()
	got := q.TakeAll()
	if len(got) != 2 || got[0].user != 1 || got[1].user != 2 {
		t.Fatalf("TakeAll: %+v", got)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after TakeAll", q.Depth())
	}
	if got := q.TakeAll(); len(got) != 0 {
		t.Fatalf("second TakeAll returned %+v", got)
	}
}

// TestQueueStaysBounded pins compaction: a queue that is never emptied —
// every pop leaves a backlog behind it — must not grow its backing array
// with the number of items that ever passed through. A copy without the
// compaction step ends this loop at 200,004 slots.
func TestQueueStaysBounded(t *testing.T) {
	const depth, cycles = 4, 200000
	q := New[item](depth+1, nil)
	for u := 0; u < depth; u++ {
		if err := q.Push(mk(u)); err != nil {
			t.Fatal(err)
		}
	}
	var buf []item
	for i := 0; i < cycles; i++ {
		if err := q.Push(item{user: depth + i}); err != nil {
			t.Fatal(err)
		}
		buf = q.PopBatch(1, 0, buf)
		if buf[0].user != i {
			t.Fatalf("cycle %d popped user %d", i, buf[0].user)
		}
		q.Finish()
	}
	if d := q.Depth(); d != depth {
		t.Fatalf("depth %d, want %d", d, depth)
	}
	if c := cap(q.items); c > 4096 {
		t.Fatalf("backing array holds %d slots after %d cycles at depth %d", c, cycles, depth)
	}
}
