package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// newStoppedLog builds a Log with no background flusher, so tests can
// drive flushOnce deterministically (e.g. to pin the exact submission
// shape of a wrap-around flush).
func newStoppedLog(t testing.TB, dev Device, opts Options) *Log {
	t.Helper()
	opts.fill()
	return newLog(dev, opts, 0)
}

// A wrap-around flush region must go down as ONE vectored submission
// (two (offset, buffer) pairs), not two sequential writes.
func TestFlushWrapAroundSingleSubmission(t *testing.T) {
	dev := NewMem()
	l := newStoppedLog(t, dev, Options{Kind: Serial, SyncOnFlush: true})
	ringSize := uint64(l.opts.BufferSize)

	// Park the log frontier near the end of the ring so the next
	// record wraps.
	startAt := ringSize - 64
	l.next = startAt
	l.fr.filled.Store(startAt)
	l.flushed.Store(startAt)
	// The device already "contains" the log prefix.
	if _, err := dev.WriteAt(make([]byte, startAt), 0); err != nil {
		t.Fatal(err)
	}
	preWrites := dev.DeviceStats().Writes

	payload := bytes.Repeat([]byte("w"), 200)
	rec := make([]byte, EncodedSize(len(payload)))
	if _, err := Encode(&Record{Type: RecUpdate, TxnID: 7, Payload: payload}, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := l.insertSerial(rec, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.flushOnce(causeDemand); err != nil {
		t.Fatal(err)
	}

	if got := dev.DeviceStats().Writes - preWrites; got != 1 {
		t.Fatalf("wrapped flush issued %d write submissions, want 1", got)
	}
	if dev.DeviceStats().VecWrites != 1 {
		t.Fatalf("vec writes = %d, want 1", dev.DeviceStats().VecWrites)
	}
	st := l.StatsSnapshot()
	if st.FlushWrites != 1 {
		t.Fatalf("FlushWrites = %d, want 1", st.FlushWrites)
	}
	if st.FlushSyncs != 1 {
		t.Fatalf("FlushSyncs = %d, want 1", st.FlushSyncs)
	}
	// The record must be intact on the device across the wrap.
	recs, err := scanAll(dev, LSN(startAt))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, payload) {
		t.Fatalf("wrapped record corrupted: %d records", len(recs))
	}
}

// Regression: a dead flusher must not leave ring-full inserters hung.
// Once, flusher() failed commit waiters but not the goroutines parked
// in allocateLocked, which waited forever on a frontier that could no
// longer advance.
func TestFlusherDeathUnblocksRingFullInserters(t *testing.T) {
	for _, kind := range BufferKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dev := NewMem()
			bang := errors.New("disk on fire")
			dev.FailAfter(1, bang) // first flush write dies
			// The minimum ring: the six ~128 KiB records below need
			// 768 KiB, so it fills and the later inserters block whether
			// or not the flusher has died yet.
			l, err := New(dev, Options{Kind: kind, BufferSize: EncodedSize(MaxPayload), SyncOnFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			if l.opts.BufferSize != 512<<10 {
				t.Fatalf("minimum ring is %d bytes, test assumes 512 KiB", l.opts.BufferSize)
			}
			payload := bytes.Repeat([]byte("x"), MaxPayload/2)
			const inserters = 6
			errs := make(chan error, inserters)
			for i := 0; i < inserters; i++ {
				go func(i int) {
					_, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: payload})
					errs <- err
				}(i)
			}
			deadline := time.After(10 * time.Second)
			sawErr := 0
			for i := 0; i < inserters; i++ {
				select {
				case err := <-errs:
					if err != nil {
						sawErr++
						if !errors.Is(err, bang) && !errors.Is(err, ErrClosed) {
							t.Fatalf("unexpected insert error: %v", err)
						}
					}
				case <-deadline:
					t.Fatalf("inserters still hung %d/%d after flusher death", inserters-i, inserters)
				}
			}
			// The ring fits at most 3 of the 6 records before the dead
			// flusher's frontier, so at least 3 inserters must have been
			// refused or unblocked with the flusher's error rather than
			// hanging.
			if sawErr < inserters-3 {
				t.Fatalf("only %d/%d inserters saw the poisoned log", sawErr, inserters)
			}
			// New inserts are refused outright on a poisoned log.
			if _, err := l.Append(&Record{Type: RecUpdate, TxnID: 99}); !errors.Is(err, bang) {
				t.Fatalf("insert on poisoned log: %v, want %v", err, bang)
			}
			// Commit waiters fail rather than hang.
			if err := l.WaitFlushed(0); !errors.Is(err, bang) {
				t.Fatalf("WaitFlushed on poisoned log: %v", err)
			}
			if err := l.Close(); !errors.Is(err, bang) {
				t.Fatalf("Close on poisoned log: %v", err)
			}
		})
	}
}

// The flush daemon coalesces pending kicks: a burst of inserts while
// a flush is in flight must not translate into one no-op flush per
// kick afterwards.
func TestFlusherCoalescesKicks(t *testing.T) {
	dev := NewMem()
	l, err := New(dev, Options{Kind: Serial, SyncOnFlush: true, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last LSN
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: []byte("k")})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := l.WaitFlushed(last); err != nil {
		t.Fatal(err)
	}
	st := l.StatsSnapshot()
	if st.Flushes == 0 || st.Flushes > 100 {
		t.Fatalf("flushes = %d for 100 inserts", st.Flushes)
	}
	// Every flush submission carried data: submissions == flushes.
	if st.FlushWrites != st.Flushes {
		t.Fatalf("flush writes %d != flushes %d", st.FlushWrites, st.Flushes)
	}
}
