package invariant

import (
	"sync"
	"testing"
	"time"

	"hydra/internal/obs"
)

// TestRankedLocksCountEveryAcquisition: a Lock, a successful try and a
// sync.Cond's re-lock count once each in the tier's profile, a failed
// try counts nothing, either side of an RWLock counts, and a Check
// counts nothing.
func TestRankedLocksCountEveryAcquisition(t *testing.T) {
	var m Mutex[DoraQueue]
	before := doraQueue.prof.Ops()
	m.Lock() // 1
	if m.TryLock() {
		t.Fatal("TryLock of a held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() { // 2
		t.Fatal("TryLock of a free mutex failed")
	}
	cond := sync.Cond{L: &m}
	go func() {
		m.Lock() // 3, once Wait has released the mutex
		cond.Signal()
		m.Unlock()
	}()
	cond.Wait() // 4: the re-lock
	m.Unlock()
	if got := doraQueue.prof.Ops() - before; got != 4 {
		t.Fatalf("dora_queue counted %d acquisitions, want 4", got)
	}

	var rw RWMutex[Tree]
	before = treeMu.prof.Ops()
	rw.RLock() // 1
	rw.RLock() // 2
	rw.RUnlock()
	rw.RUnlock()
	rw.LockC(nil) // 3
	rw.Unlock()
	Check[Tree]() // not an acquisition
	if got := treeMu.prof.Ops() - before; got != 3 {
		t.Fatalf("tree counted %d acquisitions, want 3", got)
	}
}

// TestClockedAcquireChargesOnlyAWait: an uncontended clocked acquire
// puts nothing on the clock; one that waits puts its wait on the
// latch-wait phase.
func TestClockedAcquireChargesOnlyAWait(t *testing.T) {
	var m Mutex[WALLog]
	var c obs.PhaseClock
	m.LockC(&c)
	m.Unlock()
	if got := c.Lap(obs.PhaseLatchWait); got != 0 {
		t.Fatalf("uncontended LockC charged %d ns", got)
	}
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.LockC(&c)
		m.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) //hydra:vet:ignore lockscope -- the hold is what the clocked acquire must wait out
	m.Unlock()
	<-done
	if got := c.Lap(obs.PhaseLatchWait); got < int64(time.Millisecond) {
		t.Fatalf("contended LockC charged %d ns, want the wait (≥ 1 ms)", got)
	}
}
