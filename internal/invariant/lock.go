package invariant

import (
	"sync"

	"hydra/internal/obs"
)

// These are the hottest calls in the engine, so the plain acquires are
// written out rather than calling their clocked forms (one call fewer),
// and the release check sits behind the Enabled constant, which keeps
// an unlock within the compiler's inlining budget.

// Mutex is a sync.Mutex ranked at tier T.
type Mutex[T Tier] struct{ mu sync.Mutex }

// Lock acquires the mutex.
func (m *Mutex[T]) Lock() {
	t := acquiring[T]()
	s := t.prof.Start()
	m.mu.Lock()
	t.prof.Done(s)
}

// LockC is Lock with a phase clock: a contended wait goes to the
// clock's latch-wait phase. The uncontended path reads no clock.
func (m *Mutex[T]) LockC(c *obs.PhaseClock) {
	t := acquiring[T]()
	s := t.prof.Start()
	if !m.mu.TryLock() {
		wait(m.mu.Lock, c)
	}
	t.prof.Done(s)
}

// TryLock acquires the mutex if it is free, and reports whether it did.
func (m *Mutex[T]) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	t := acquiring[T]()
	t.prof.Done(t.prof.Start()) // an acquisition that did not wait
	return true
}

// Unlock releases the mutex.
func (m *Mutex[T]) Unlock() {
	if Enabled {
		releasing[T]()
	}
	m.mu.Unlock()
}

// RWLocker is the reader-writer lock an RWLock ranks: *sync.RWMutex, or
// the page latches' spinning *sync2.SpinRWLock.
type RWLocker[L any] interface {
	*L
	Lock()
	Unlock()
	RLock()
	RUnlock()
	TryLock() bool
	TryRLock() bool
}

// RWLock is the reader-writer lock L ranked at tier T; either side
// counts as an acquisition of T.
type RWLock[T Tier, L any, P RWLocker[L]] struct{ l L }

// RWMutex is a sync.RWMutex ranked at tier T.
type RWMutex[T Tier] = RWLock[T, sync.RWMutex, *sync.RWMutex]

// Lock acquires the lock exclusively.
func (m *RWLock[T, L, P]) Lock() {
	t := acquiring[T]()
	s := t.prof.Start()
	P(&m.l).Lock()
	t.prof.Done(s)
}

// LockC is Lock with a phase clock (see Mutex.LockC).
func (m *RWLock[T, L, P]) LockC(c *obs.PhaseClock) {
	t := acquiring[T]()
	s := t.prof.Start()
	if l := P(&m.l); !l.TryLock() {
		wait(l.Lock, c)
	}
	t.prof.Done(s)
}

// RLock acquires the lock shared.
func (m *RWLock[T, L, P]) RLock() {
	t := acquiring[T]()
	s := t.prof.Start()
	P(&m.l).RLock()
	t.prof.Done(s)
}

// RLockC is RLock with a phase clock (see Mutex.LockC).
func (m *RWLock[T, L, P]) RLockC(c *obs.PhaseClock) {
	t := acquiring[T]()
	s := t.prof.Start()
	if l := P(&m.l); !l.TryRLock() {
		wait(l.RLock, c)
	}
	t.prof.Done(s)
}

// Unlock releases an exclusive hold.
func (m *RWLock[T, L, P]) Unlock() {
	if Enabled {
		releasing[T]()
	}
	P(&m.l).Unlock()
}

// RUnlock releases a shared hold.
func (m *RWLock[T, L, P]) RUnlock() {
	if Enabled {
		releasing[T]()
	}
	P(&m.l).RUnlock()
}

// Check asserts (hydradebug) that the calling goroutine holds no lock
// ranked above tier T: the rank check of an acquisition of T, for a
// path that belongs at tier T but takes no lock there (a Crabbing
// tree's operations, which the Coarse tree lock would rank). It counts
// nothing and holds nothing.
func Check[T Tier]() {
	if Enabled {
		var x T
		entered(x.tier())
	}
}

// acquiring returns tier T for an acquisition about to be counted,
// having checked its rank against the goroutine's holds (hydradebug).
func acquiring[T Tier]() *tier {
	var x T
	t := x.tier()
	if Enabled {
		acquired(t)
	}
	return t
}

// releasing records the release of a tier-T lock (hydradebug).
func releasing[T Tier]() {
	var x T
	released(x.tier())
}

// wait blocks in lock, a contended acquisition, putting the wait on c's
// latch-wait phase; a nil c reads no clock.
func wait(lock func(), c *obs.PhaseClock) {
	if c == nil {
		lock()
		return
	}
	t0 := obs.Now()
	lock()
	c.Add(obs.PhaseLatchWait, obs.Now()-t0)
}
