package sync2

import (
	"sync"
	"sync/atomic"
)

// HybridLock spins for a bounded budget and then blocks on the
// runtime scheduler. This is the compromise the paper's reference on
// spinning vs blocking arrives at: short critical sections are
// usually handed off within the spin budget (avoiding the park/unpark
// round trip), while long waits deschedule the waiter instead of
// burning a hardware context.
type HybridLock struct {
	state   uint32 // 0 free, 1 held
	waiters int32  // count of parked or parking waiters
	mu      sync.Mutex
	cond    *sync.Cond
	budget  int
}

// NewHybrid returns a hybrid lock that spins spinBudget iterations
// before parking. A budget of 0 makes it purely blocking.
func NewHybrid(spinBudget int) *HybridLock {
	l := &HybridLock{budget: spinBudget}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Lock acquires the lock, spinning briefly before blocking.
func (l *HybridLock) Lock() {
	// Fast path and spin phase.
	for i := 0; i <= l.budget; i++ {
		if atomic.LoadUint32(&l.state) == 0 &&
			atomic.CompareAndSwapUint32(&l.state, 0, 1) {
			return
		}
		spinYield()
	}
	// Slow path: park on the condition variable.
	atomic.AddInt32(&l.waiters, 1)
	l.mu.Lock()
	for !atomic.CompareAndSwapUint32(&l.state, 0, 1) {
		l.cond.Wait()
	}
	l.mu.Unlock()
	atomic.AddInt32(&l.waiters, -1)
}

// Unlock releases the lock and wakes one parked waiter, if any.
func (l *HybridLock) Unlock() {
	atomic.StoreUint32(&l.state, 0)
	if atomic.LoadInt32(&l.waiters) > 0 {
		l.mu.Lock()
		l.cond.Signal()
		l.mu.Unlock()
	}
}

// SpinRWLock is a writer-preference reader-writer spinlock built on a
// single state word: bit 31 flags a writer, the low bits count
// readers. Page latches use a bounded-spin variant of this shape.
type SpinRWLock struct {
	state uint32 // bit31: writer held; bit30: writer waiting; low bits: reader count
}

const (
	rwWriterHeld    = 1 << 31
	rwWriterWaiting = 1 << 30
	rwReaderMask    = rwWriterWaiting - 1
)

// RLock acquires the lock in shared mode. Readers defer to a waiting
// writer so writers cannot starve.
func (l *SpinRWLock) RLock() {
	for {
		s := atomic.LoadUint32(&l.state)
		if s&(rwWriterHeld|rwWriterWaiting) == 0 {
			if atomic.CompareAndSwapUint32(&l.state, s, s+1) {
				return
			}
			continue
		}
		spinYield()
	}
}

// RUnlock releases a shared hold.
func (l *SpinRWLock) RUnlock() {
	atomic.AddUint32(&l.state, ^uint32(0)) // -1
}

// Lock acquires the lock exclusively.
func (l *SpinRWLock) Lock() {
	// Claim the writer-waiting flag; it both serializes writers and
	// makes new readers stand aside.
	for {
		s := atomic.LoadUint32(&l.state)
		if s&(rwWriterWaiting|rwWriterHeld) == 0 {
			if atomic.CompareAndSwapUint32(&l.state, s, s|rwWriterWaiting) {
				break
			}
			continue
		}
		spinYield()
	}
	// Wait for readers to drain, then convert waiting -> held.
	for {
		s := atomic.LoadUint32(&l.state)
		if s&rwReaderMask == 0 {
			if atomic.CompareAndSwapUint32(&l.state, s, rwWriterHeld) {
				return
			}
			continue
		}
		spinYield()
	}
}

// Unlock releases an exclusive hold.
func (l *SpinRWLock) Unlock() {
	atomic.AndUint32(&l.state, ^uint32(rwWriterHeld))
}

// TryRLock attempts a shared acquisition without spinning. It may
// fail spuriously when the state word is churning; callers use it as
// a contention probe before a timed slow-path RLock.
func (l *SpinRWLock) TryRLock() bool {
	s := atomic.LoadUint32(&l.state)
	return s&(rwWriterHeld|rwWriterWaiting) == 0 &&
		atomic.CompareAndSwapUint32(&l.state, s, s+1)
}

// TryLock attempts an exclusive acquisition without spinning: it
// succeeds only from the fully-free state.
func (l *SpinRWLock) TryLock() bool {
	return atomic.CompareAndSwapUint32(&l.state, 0, rwWriterHeld)
}
