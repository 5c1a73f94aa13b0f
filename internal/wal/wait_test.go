package wal

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"hydra/internal/rng"
)

// TestWaitUnderRaces races the log's one wait. In rounds, 32 goroutines
// each append a record of up to 1 KiB and its commit to a 4 KiB ring and
// wait for the commit, so inserters keep waiting for room beside the
// committers, and each round ends with no flush left to come. No wait
// may return nil while the durable frontier is at or below its record,
// and none may hang. The poisoned runs are 20 logs whose device fails
// within their first rounds: the round the flusher dies in must still
// end, every goroutine returning nil or the device's error. The
// consolidated log also runs rounds of 2 KiB records: above the group
// bound (a quarter of the ring), each leads a group alone, and inserters
// that find every slot taken go round the slots until one frees.
func TestWaitUnderRaces(t *testing.T) {
	for _, kind := range BufferKinds() {
		src := rng.New(uint64(kind) + 1)
		t.Run(kind.String(), func(t *testing.T) { raceWaits(t, kind, src, 0, 0) })
		if kind == Consolidated {
			t.Run(kind.String()+"/2KiB", func(t *testing.T) { raceWaits(t, kind, src, 0, 2<<10-EncodedSize(0)) })
		}
		t.Run(kind.String()+"/poisoned", func(t *testing.T) {
			for life := 0; life < 20 && !t.Failed(); life++ {
				raceWaits(t, kind, src, 1+src.Intn(4*waitRoundBytes), 0)
			}
		})
	}
}

const (
	waitWorkers, waitRounds, waitMaxPayload = 32, 100, 1000
	waitRoundBytes                          = waitWorkers * (waitMaxPayload/2 + 100) // about what a round logs
)

// raceWaits runs the rounds on a new log whose device fails past
// failAt, if failAt > 0, until the log dies. Each record's payload is
// size bytes, or 1 to waitMaxPayload if size is 0.
func raceWaits(t *testing.T, kind BufferKind, src *rng.Source, failAt, size int) {
	dev := NewMem()
	bang := errors.New("disk on fire")
	if failAt > 0 {
		dev.FailAfter(int64(failAt), bang)
	}
	opts := Options{Kind: kind, BufferSize: 4 << 10, SyncOnFlush: true}
	opts.fill()
	l := newLog(dev, opts, 0) // below New's minimum ring, so that 1 KiB records fill it
	l.stopped = make(chan struct{})
	go l.flusher()
	dead := false
	for r := 0; r < waitRounds && !dead; r++ {
		errs := make(chan error, waitWorkers)
		for w := 0; w < waitWorkers; w++ {
			n := size
			if n == 0 {
				n = 1 + src.Intn(waitMaxPayload)
			}
			payload := make([]byte, n)
			go func() { errs <- commitAndWait(l, uint64(w), payload) }()
		}
		deadline := time.After(10 * time.Second)
		for w := 0; w < waitWorkers; w++ {
			select {
			case err := <-errs:
				if err != nil && (failAt == 0 || !errors.Is(err, bang)) {
					t.Fatalf("round %d: %v", r, err)
				}
				dead = dead || err != nil
			case <-deadline:
				t.Fatalf("round %d: %d of %d goroutines still parked after 10 s", r, waitWorkers-w, waitWorkers)
			}
		}
	}
	if dead != (failAt > 0) {
		t.Fatalf("device failing past %d, but the log died: %v", failAt, dead)
	}
	if err := l.Close(); !errors.Is(err, l.poisoned()) {
		t.Fatalf("close: %v", err)
	}
}

// commitAndWait appends payload and a commit for txn and waits for the
// commit to be durable.
func commitAndWait(l *Log, txn uint64, payload []byte) error {
	if _, err := l.AppendFields(RecUpdate, txn, NilLSN, 0, 0, payload); err != nil {
		return err
	}
	lsn, err := l.AppendFields(RecCommit, txn, NilLSN, 0, 0, nil)
	if err != nil {
		return err
	}
	if err := l.WaitFlushed(lsn); err != nil {
		return err
	}
	if f := l.FlushedLSN(); f <= lsn {
		return fmt.Errorf("WaitFlushed(%d) returned nil with the durable frontier at %d", lsn, f)
	}
	return nil
}

// TestWaitWakesEachWaiterOnce: a flush wakes exactly the waiters whose
// target it reached, each once, and leaves the others parked.
func TestWaitWakesEachWaiterOnce(t *testing.T) {
	l := newStoppedLog(t, NewMem(), Options{Kind: Serial})
	woke := make(chan uint64, 3)
	for _, target := range []uint64{100, 200, 300} {
		go func() {
			if err := l.WaitFlushed(LSN(target - 1)); err != nil {
				t.Error(err)
			}
			woke <- target
		}()
	}
	// No flusher runs: the three stay on the arrival list.
	for n := 0; n < 3; runtime.Gosched() {
		n = 0
		for w := l.arrivals.Load(); w != nil; w = w.next {
			n++
		}
	}
	flushTo := func(end uint64, want ...uint64) {
		t.Helper()
		l.fr.filled.Store(end)
		if err := l.flushOnce(causeDemand); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for range want {
			got = append(got, <-woke)
		}
		select {
		case w := <-woke:
			got = append(got, w)
		case <-time.After(20 * time.Millisecond):
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("flush to %d woke %v, want %v", end, got, want)
		}
	}
	if n := l.CommitWaiters(); n != 3 {
		t.Fatalf("CommitWaiters = %d, want 3", n)
	}
	flushTo(150, 100)
	if n := l.CommitWaiters(); n != 2 {
		t.Fatalf("CommitWaiters = %d after the flush to 150, want 2", n)
	}
	flushTo(300, 200, 300)
	if n := l.CommitWaiters(); n != 0 {
		t.Fatalf("CommitWaiters = %d after the flush to 300, want 0", n)
	}
	flushTo(300) // nothing new: no waiter is woken twice
	if l.arrivals.Load() != nil || l.waiting != nil {
		t.Fatal("a woken waiter is still listed")
	}
}
