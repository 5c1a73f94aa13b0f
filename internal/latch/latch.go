// Package latch provides the short-duration physical locks ("latches")
// that protect in-memory structures such as buffer frames and B+-tree
// nodes. Latches differ from transactional locks: they are held for
// microseconds, carry no deadlock detection, and their acquisition
// mechanism (spin vs block) is exactly the primitive-level tradeoff
// the paper highlights.
package latch

import (
	"hydra/internal/invariant"
	"hydra/internal/obs"
	"hydra/internal/sync2"
)

// Mode is the requested access mode.
type Mode int

const (
	// Shared allows any number of concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single owner.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Latch is a reader-writer latch. Implementations must support
// recursive-free, paired Acquire/Release usage.
type Latch interface {
	Acquire(m Mode)
	// AcquireC is Acquire with a phase clock: when the latch cannot
	// be taken immediately, the wait is attributed to the clock's
	// latch-wait phase. The uncontended path performs no clock reads;
	// a nil clock behaves exactly like Acquire.
	AcquireC(m Mode, c *obs.PhaseClock)
	Release(m Mode)
}

// Kind selects a latch implementation.
type Kind int

const (
	// Blocking parks waiters on the runtime (sync.RWMutex).
	Blocking Kind = iota
	// Spinning busy-waits (sync2.SpinRWLock).
	Spinning
)

func (k Kind) String() string {
	if k == Blocking {
		return "blocking"
	}
	return "spinning"
}

// New returns a fresh latch of the given kind.
func New(k Kind) Latch {
	if k == Spinning {
		return &spinLatch{}
	}
	return &blockLatch{}
}

// The two kinds are one ranked lock each, at the frame-latch tier. They
// are two types, not one generic over the lock, because the page latch
// is the hottest lock there is and a generic one measured about half a
// nanosecond more per acquisition.
type (
	blockLatch struct {
		rw invariant.RWMutex[invariant.FrameLatch]
	}
	spinLatch struct {
		rw invariant.RWLock[invariant.FrameLatch, sync2.SpinRWLock, *sync2.SpinRWLock]
	}
)

func (l *blockLatch) Acquire(m Mode) { l.AcquireC(m, nil) }

func (l *blockLatch) AcquireC(m Mode, c *obs.PhaseClock) {
	if m == Shared {
		l.rw.RLockC(c)
	} else {
		l.rw.LockC(c)
	}
}

func (l *blockLatch) Release(m Mode) {
	if m == Shared {
		l.rw.RUnlock()
	} else {
		l.rw.Unlock()
	}
}

func (l *spinLatch) Acquire(m Mode) { l.AcquireC(m, nil) }

func (l *spinLatch) AcquireC(m Mode, c *obs.PhaseClock) {
	if m == Shared {
		l.rw.RLockC(c)
	} else {
		l.rw.LockC(c)
	}
}

func (l *spinLatch) Release(m Mode) {
	if m == Shared {
		l.rw.RUnlock()
	} else {
		l.rw.Unlock()
	}
}
