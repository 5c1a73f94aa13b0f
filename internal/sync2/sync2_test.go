package sync2

import (
	"sync"
	"testing"
	"time"
)

// exercise asserts mutual exclusion: n goroutines each increment a
// plain (non-atomic) counter iters times under the lock. Any mutual
// exclusion failure shows up as a lost update (and as a race under
// -race).
func exercise(t *testing.T, l Locker, n, iters int) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != n*iters {
		t.Fatalf("lost updates: counter = %d, want %d", counter, n*iters)
	}
}

func TestMutualExclusionAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			exercise(t, New(k), 8, 2000)
		})
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindTAS: "tas", KindTATAS: "tatas", KindTicket: "ticket",
		KindMCS: "mcs", KindBlocking: "block", KindHybrid: "hybrid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("unknown kind should stringify to unknown")
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(unknown) did not panic")
		}
	}()
	New(Kind(99))
}

func TestTryLock(t *testing.T) {
	var l TASLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()

	var tl TATASLock
	if !tl.TryLock() || tl.TryLock() {
		t.Fatal("TATAS TryLock semantics wrong")
	}
	tl.Unlock()
}

func TestTicketFairnessOrdering(t *testing.T) {
	// With a ticket lock, a queued waiter must get the lock before a
	// later arrival. We serialize arrivals with channels to make the
	// arrival order deterministic.
	var l TicketLock
	l.Lock()
	order := make(chan int, 2)
	arrived := make(chan struct{})
	go func() {
		close(arrived)
		l.Lock()
		//hydra:vet:ignore lockscope -- buffered (cap 2) report channel; send cannot block
		order <- 1
		l.Unlock()
	}()
	//hydra:vet:ignore lockscope -- fairness test: main goroutine deliberately parks arrivals behind its lock
	<-arrived
	//hydra:vet:ignore lockscope -- fairness test: main goroutine deliberately parks arrivals behind its lock
	time.Sleep(10 * time.Millisecond)
	go func() {
		l.Lock()
		//hydra:vet:ignore lockscope -- buffered (cap 2) report channel; send cannot block
		order <- 2
		l.Unlock()
	}()
	//hydra:vet:ignore lockscope -- fairness test: main goroutine deliberately parks arrivals behind its lock
	time.Sleep(10 * time.Millisecond)
	l.Unlock()
	if first := <-order; first != 1 {
		t.Fatalf("ticket lock served arrival %d first", first)
	}
	<-order
}

func TestHybridZeroBudgetBlocks(t *testing.T) {
	exercise(t, NewHybrid(0), 4, 1000)
}

func TestSpinRWLockReadersShareWritersExclude(t *testing.T) {
	var l SpinRWLock
	l.RLock()
	l.RLock() // two concurrent readers must be fine
	done := make(chan struct{})
	go func() {
		l.Lock() // writer must wait for both readers
		close(done)
		l.Unlock()
	}()
	//hydra:vet:ignore lockscope -- exclusion test: waits (bounded) under RLock to assert the writer stays out
	select {
	case <-done:
		t.Fatal("writer acquired lock while readers held it")
	case <-time.After(20 * time.Millisecond):
	}
	l.RUnlock()
	l.RUnlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired lock after readers released")
	}
}

func TestSpinRWLockWriterBlocksReaders(t *testing.T) {
	var l SpinRWLock
	l.Lock()
	got := make(chan struct{})
	go func() {
		l.RLock()
		close(got)
		l.RUnlock()
	}()
	//hydra:vet:ignore lockscope -- exclusion test: waits (bounded) under Lock to assert readers stay out
	select {
	case <-got:
		t.Fatal("reader acquired lock while writer held it")
	case <-time.After(20 * time.Millisecond):
	}
	l.Unlock()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("reader never acquired lock after writer released")
	}
}

func TestSpinRWLockCounterIntegrity(t *testing.T) {
	var l SpinRWLock
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() { // writer
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
		go func() { // reader
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.RLock()
				_ = counter
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if counter != 2000 {
		t.Fatalf("counter = %d, want 2000", counter)
	}
}

func TestStressProducesWork(t *testing.T) {
	for _, k := range []Kind{KindTATAS, KindBlocking, KindHybrid} {
		r := Stress(k, 4, 30*time.Millisecond, 5, 20)
		if r.Acquisitions == 0 {
			t.Errorf("%v: no acquisitions in stress window", k)
		}
		if r.Throughput() <= 0 {
			t.Errorf("%v: non-positive throughput", k)
		}
	}
}

func TestStressResultThroughputZeroDuration(t *testing.T) {
	r := StressResult{Acquisitions: 10}
	if r.Throughput() != 0 {
		t.Fatal("zero-duration throughput should be 0")
	}
}

func BenchmarkUncontended(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			l := New(k)
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

func BenchmarkContended(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			l := New(k)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock()
					l.Unlock()
				}
			})
		})
	}
}
