package batchq

import (
	"slices"
	"testing"
	"time"
)

type item struct {
	user int
}

func mk(u int) item { return item{user: u} }

// popAsync runs one PopBatch on its own goroutine, as the consumer loop
// does, and delivers the batch.
func popAsync(q *Queue[item], max int, partial bool) <-chan []item {
	out := make(chan []item, 1)
	go func() { out <- q.PopBatch(max, partial, nil) }()
	return out
}

// users lists a batch's users, for comparing against the expected pop.
func users(batch []item) []int {
	out := make([]int, len(batch))
	for i, it := range batch {
		out[i] = it.user
	}
	return out
}

func wantBatch(t *testing.T, what string, got []item, want ...int) {
	t.Helper()
	if g := users(got); !slices.Equal(g, want) {
		t.Fatalf("%s: popped %v, want %v", what, g, want)
	}
}

// await receives a batch the consumer must produce without any timer: the
// generous bound only keeps a broken queue from hanging the suite.
func await(t *testing.T, what string, c <-chan []item) []item {
	t.Helper()
	select {
	case b := <-c:
		return b
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: consumer still waiting", what)
		return nil
	}
}

// stillWaiting asserts the consumer has not popped anything yet.
func stillWaiting(t *testing.T, what string, c <-chan []item) {
	t.Helper()
	select {
	case b := <-c:
		t.Fatalf("%s: popped %v early", what, users(b))
	case <-time.After(20 * time.Millisecond):
	}
}

func push(t *testing.T, q *Queue[item], us ...int) {
	t.Helper()
	for _, u := range us {
		if err := q.Push(mk(u)); err != nil {
			t.Fatalf("push %d: %v", u, err)
		}
	}
}

// TestQueue unit-tests the bounded queue: the live dispatch-on-idle rule,
// the producer hold, replay batching, drain, close and backpressure.
func TestQueue(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, q *Queue[item])
	}{
		{"live lone push pops at once", func(t *testing.T, q *Queue[item]) {
			got := popAsync(q, 8, true)
			stillWaiting(t, "empty queue", got)
			push(t, q, 7)
			wantBatch(t, "lone push", await(t, "lone push", got), 7)
		}},
		{"live batch forms while busy, capped at max", func(t *testing.T, q *Queue[item]) {
			push(t, q, 0)
			wantBatch(t, "first pop", q.PopBatch(3, true, nil), 0)
			push(t, q, 1, 2, 3, 4, 5) // arrive while the batch is deciding
			if q.Idle() {
				t.Fatal("queue idle with a batch in flight")
			}
			q.Finish()
			wantBatch(t, "second pop", q.PopBatch(3, true, nil), 1, 2, 3)
			q.Finish()
			wantBatch(t, "third pop", q.PopBatch(3, true, nil), 4, 5)
			q.Finish()
			if !q.Idle() {
				t.Fatal("queue not idle after Finish")
			}
		}},
		{"held queue yields no partial batch until Release", func(t *testing.T, q *Queue[item]) {
			q.Hold()
			got := popAsync(q, 8, true)
			push(t, q, 1, 2)
			stillWaiting(t, "held", got)
			q.Drain()
			stillWaiting(t, "held and drained", got)
			q.Hold() // holds nest
			q.Release()
			stillWaiting(t, "still held once", got)
			push(t, q, 3)
			q.Release()
			wantBatch(t, "released", await(t, "released", got), 1, 2, 3)
		}},
		{"held queue still pops a full batch", func(t *testing.T, q *Queue[item]) {
			q.Hold()
			defer q.Release()
			push(t, q, 1, 2, 3)
			wantBatch(t, "full", q.PopBatch(2, true, nil), 1, 2)
		}},
		{"close flushes a held queue", func(t *testing.T, q *Queue[item]) {
			q.Hold()
			got := popAsync(q, 8, true)
			push(t, q, 4, 5)
			stillWaiting(t, "held", got)
			q.Close()
			wantBatch(t, "close flush", await(t, "close flush", got), 4, 5)
			if b := q.PopBatch(8, true, nil); b != nil {
				t.Fatalf("closed queue returned %v", users(b))
			}
			if err := q.Push(mk(6)); err != ErrClosed {
				t.Fatalf("push after close: %v", err)
			}
		}},
		{"replay pops whole batches, partial only on drain or close", func(t *testing.T, q *Queue[item]) {
			push(t, q, 0, 1, 2)
			wantBatch(t, "full", q.PopBatch(2, false, nil), 0, 1)
			q.Finish()
			var queued []int
			q.Each(func(it *item) { queued = append(queued, it.user) })
			if len(queued) != 1 || queued[0] != 2 {
				t.Fatalf("Each: %v", queued)
			}
			got := popAsync(q, 5, false)
			stillWaiting(t, "partial replay batch", got)
			push(t, q, 9)
			q.Drain()
			wantBatch(t, "drain flush", await(t, "drain flush", got), 2, 9)
			q.Finish()
			push(t, q, 5)
			q.Close()
			wantBatch(t, "close flush", q.PopBatch(5, false, nil), 5)
			if b := q.PopBatch(5, false, nil); b != nil {
				t.Fatalf("closed queue returned %v", users(b))
			}
		}},
		{"backpressure", func(t *testing.T, q *Queue[item]) {
			push(t, q, 0, 1, 2, 3, 4, 5, 6, 7)
			if err := q.Push(mk(8)); err != ErrFull {
				t.Fatalf("overfull push: %v, want ErrFull", err)
			}
			if d := q.Depth(); d != 8 {
				t.Fatalf("depth %d, want 8", d)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New[item](8)
			defer q.Close() // releases a consumer a failed case left waiting
			tc.run(t, q)
		})
	}
}

// TestQueueTakeAll unit-tests the shutdown backstop: TakeAll empties the
// queue and returns everything a consumer never popped.
func TestQueueTakeAll(t *testing.T) {
	q := New[item](8)
	for u := 0; u < 3; u++ {
		if err := q.Push(mk(u)); err != nil {
			t.Fatal(err)
		}
	}
	q.PopBatch(1, false, nil) // consume one; two remain
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
	q := New[item](depth + 1)
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
		buf = q.PopBatch(1, false, buf)
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
