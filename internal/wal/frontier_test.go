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

// TestFrontierUnderRaces races completions in every insert algorithm.
// Writers append records of random size and yield at random between
// their copy and their completion, while a watcher loads FilledLSN: it
// must never fall back, must always sit on a record boundary (where the
// log opened, or the end of an appended record), and must end at the
// log's end. Between its copy and its completion a record is not
// filled: the frontier must not have passed its start, nor the LSN the
// reservation word issues next. The second ring holds fewer marks than
// there are writers, and the word counts tickets modulo twice the
// marks, 4: the ticket field wraps thousands of times, and tickets far
// more than 4 past head are issued, which must wait for head rather
// than lap it. A lapping ticket overwrites a mark head has not passed:
// the frontier stalls, or jumps over a record not yet copied.
func TestFrontierUnderRaces(t *testing.T) {
	const writers, per = 8, 1000
	for _, marks := range []int{frontierMarks, 2} {
		for _, kind := range BufferKinds() {
			t.Run(fmt.Sprintf("%s/marks=%d", kind, marks), func(t *testing.T) {
				defer func(n int) { frontierMarks = n }(frontierMarks)
				frontierMarks = marks
				l := newTestLog(t, kind, NewMem())
				defer l.Close()
				var jumped atomic.Bool
				testHookPlaced = func(lsn uint64) {
					f := uint64(l.FilledLSN())
					if f > lsn || f > uint64(l.NextLSN()) {
						jumped.Store(true)
					}
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
					t.Fatalf("writers stalled (the frontier passed a record being copied: %v)", jumped.Load())
				}
				done.Store(true)
				<-watched

				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				if jumped.Load() {
					t.Error("the filled frontier passed a record that was still being copied")
				}
				// Every reservation took a ticket from the word, which
				// holds their count modulo twice the marks.
				mod := 2 * uint64(marks)
				reservations := l.StatsSnapshot().MutexAcquires
				if tk := l.res.Load() >> l.lsnBits; tk != reservations%mod {
					t.Errorf("ticket field %d after %d reservations, want their count modulo %d", tk, reservations, mod)
				}
				if wraps := reservations / mod; marks == 2 && wraps == 0 {
					t.Errorf("%d reservations never wrapped the ticket field", reservations)
				} else {
					t.Logf("%d reservations wrapped the ticket field %d times", reservations, wraps)
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
