package sync2

import (
	"sync"

	"hydra/internal/invariant"
)

// Queue is a bounded multi-producer single-consumer queue whose
// consumer drains every queued item in one lock acquisition. It is
// the channel replacement for executor inboxes (DORA): a channel
// charges one synchronized handoff per item, so a hot partition pays
// a wakeup per action; Drain amortizes the mutex and the consumer
// wakeup over the whole backlog, the same kick-coalescing idea the
// WAL flusher uses for commit batches.
//
// Close semantics are what a shutdown path wants: Put reports false
// instead of panicking once the queue is closed, and the consumer
// keeps draining until the backlog is empty before Drain reports
// closed — no item accepted by Put is ever dropped.
type Queue[T any] struct {
	mu       invariant.Mutex[invariant.DoraQueue]
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []T // ring storage
	head     int // index of the oldest element
	n        int // elements queued
	closed   bool
}

// NewQueue returns a queue holding at most capacity items.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		capacity = 1
	}
	q := &Queue[T]{buf: make([]T, capacity)}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// Put enqueues v, blocking while the queue is full. It reports false
// when the queue has been closed, in which case v was not enqueued.
func (q *Queue[T]) Put(v T) bool {
	q.mu.Lock()
	for q.n == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	if q.n == 1 {
		q.notEmpty.Signal()
	}
	q.mu.Unlock()
	return true
}

// Drain appends every queued item to into and returns the extended
// slice, blocking while the queue is empty and open. ok is false only
// when the queue is closed AND empty; a closed queue keeps yielding
// its backlog first, so the consumer sees every accepted item.
func (q *Queue[T]) Drain(into []T) (_ []T, ok bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return into, false
	}
	wasFull := q.n == len(q.buf)
	var zero T
	for ; q.n > 0; q.n-- {
		into = append(into, q.buf[q.head])
		q.buf[q.head] = zero // drop the reference so the ring doesn't pin it
		q.head = (q.head + 1) % len(q.buf)
	}
	q.head = 0
	if wasFull {
		q.notFull.Broadcast()
	}
	q.mu.Unlock()
	return into, true
}

// Len returns the current backlog (racy by nature; a gauge).
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	n := q.n
	q.mu.Unlock()
	return n
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Close rejects further Puts and wakes every blocked producer and the
// consumer. Items already queued remain drainable.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Signal()
	q.mu.Unlock()
}
