package wal

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/rng"
)

// TestFrontierUnderRaces races completions in both out-of-order insert
// algorithms. Writers append records of random size and yield at random
// between their copy and their completion, while a watcher loads
// FilledLSN: it must never fall back, must always sit on a record
// boundary (where the log opened, or the end of an appended record),
// and must end at the log's end. The second ring holds fewer marks than
// there are writers, so reservations must wait for head rather than
// lap it: no ticket is ever issued a ring's length past head.
func TestFrontierUnderRaces(t *testing.T) {
	const writers, per = 8, 1000
	for _, marks := range []int{frontierMarks, 2} {
		for _, kind := range []BufferKind{Decoupled, Consolidated} {
			t.Run(fmt.Sprintf("%s/marks=%d", kind, marks), func(t *testing.T) {
				defer func(n int) { frontierMarks = n }(frontierMarks)
				frontierMarks = marks
				l := newTestLog(t, kind, NewMem())
				defer l.Close()
				var lapped atomic.Bool
				testHookPlaced = func() {
					l.mu.Lock()
					if l.tickets-l.fr.head.Load() > uint64(len(l.fr.marks)) {
						lapped.Store(true)
					}
					l.mu.Unlock()
					if rand.IntN(2) == 0 {
						runtime.Gosched()
					}
				}
				defer func() { testHookPlaced = nil }()

				open := uint64(l.FilledLSN())
				var (
					done    atomic.Bool
					seen    = map[uint64]bool{open: true}
					watched = make(chan struct{})
				)
				go func() {
					defer close(watched)
					last := open
					for !done.Load() {
						f := uint64(l.FilledLSN())
						if f < last {
							t.Errorf("filled frontier fell from %d to %d", last, f)
							return
						}
						last, seen[f] = f, true
					}
				}()
				ends := make([][]uint64, writers)
				errs := make([]error, writers)
				var wg sync.WaitGroup
				for w := range ends {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						src := rng.New(uint64(w) + 1)
						payload := make([]byte, 300)
						for j := 0; j < per; j++ {
							p := payload[:src.Intn(len(payload)+1)]
							lsn, err := l.AppendFields(RecUpdate, uint64(w), NilLSN, 0, 0, p)
							if err != nil {
								errs[w] = err
								return
							}
							ends[w] = append(ends[w], uint64(lsn)+uint64(EncodedSize(len(p))))
						}
					}(w)
				}
				finished := make(chan struct{})
				go func() { wg.Wait(); close(finished) }()
				select {
				case <-finished:
				case <-time.After(time.Minute):
					// A lapped mark is lost: head never passes its slot.
					t.Fatalf("writers stalled (a ticket issued a ring past head: %v)", lapped.Load())
				}
				done.Store(true)
				<-watched

				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				if lapped.Load() {
					t.Errorf("a ticket was issued more than %d past head", marks)
				}
				if f, n := l.FilledLSN(), l.NextLSN(); f != n {
					t.Fatalf("filled frontier %d, log end %d: a record was never filled", f, n)
				}
				boundary := map[uint64]bool{open: true}
				for _, e := range ends {
					for _, end := range e {
						boundary[end] = true
					}
				}
				for f := range seen {
					if !boundary[f] {
						t.Fatalf("filled frontier %d is not a record boundary", f)
					}
				}
			})
		}
	}
}
