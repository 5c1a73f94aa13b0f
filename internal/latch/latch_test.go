package latch

import (
	"sync"
	"testing"
	"time"
)

func kinds() []Kind { return []Kind{Blocking, Spinning} }

func TestExclusiveMutualExclusion(t *testing.T) {
	for _, k := range kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			l := New(k)
			var counter int
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 1000; j++ {
						l.Acquire(Exclusive)
						counter++
						l.Release(Exclusive)
					}
				}()
			}
			wg.Wait()
			if counter != 8000 {
				t.Fatalf("counter = %d, want 8000", counter)
			}
		})
	}
}

func TestSharedAllowsConcurrency(t *testing.T) {
	for _, k := range kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			l := New(k)
			l.Acquire(Shared)
			done := make(chan struct{})
			go func() {
				l.Acquire(Shared)
				l.Release(Shared)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("second shared acquisition blocked")
			}
			l.Release(Shared)
		})
	}
}

func TestExclusiveExcludesShared(t *testing.T) {
	for _, k := range kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			l := New(k)
			l.Acquire(Exclusive)
			got := make(chan struct{})
			go func() {
				l.Acquire(Shared)
				close(got)
				l.Release(Shared)
			}()
			select {
			case <-got:
				t.Fatal("shared acquired during exclusive hold")
			case <-time.After(20 * time.Millisecond):
			}
			l.Release(Exclusive)
			select {
			case <-got:
			case <-time.After(time.Second):
				t.Fatal("shared never acquired after exclusive release")
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("Mode.String mismatch")
	}
	if Blocking.String() != "blocking" || Spinning.String() != "spinning" {
		t.Fatal("Kind.String mismatch")
	}
}

func BenchmarkLatch(b *testing.B) {
	for _, k := range kinds() {
		b.Run(k.String()+"/X", func(b *testing.B) {
			l := New(k)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Acquire(Exclusive)
					l.Release(Exclusive)
				}
			})
		})
		b.Run(k.String()+"/S", func(b *testing.B) {
			l := New(k)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Acquire(Shared)
					l.Release(Shared)
				}
			})
		})
	}
}
