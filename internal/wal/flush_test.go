package wal

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/rng"
)

// newStoppedLog builds a Log with no background flusher, so tests can
// drive flushOnce deterministically (e.g. to pin the exact submission
// shape of a wrap-around flush).
func newStoppedLog(t testing.TB, dev Device, opts Options) *Log {
	t.Helper()
	opts.fill()
	return newLog(dev, opts, 0)
}

// setNext makes lsn the next LSN l reserves, keeping its ticket count.
func setNext(l *Log, lsn uint64) { l.res.Store(l.res.Load()>>l.lsnBits<<l.lsnBits | lsn) }

// A wrap-around flush region must go down as ONE vectored submission
// (two (offset, buffer) pairs), not two sequential writes.
func TestFlushWrapAroundSingleSubmission(t *testing.T) {
	dev := NewMem()
	l := newStoppedLog(t, dev, Options{Kind: Serial, SyncOnFlush: true})
	ringSize := uint64(l.opts.BufferSize)

	// Park the log frontier near the end of the ring so the next
	// record wraps.
	startAt := ringSize - 64
	setNext(l, startAt)
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
	if _, err := l.Insert(rec); err != nil {
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
// for ring room, which waited forever on a frontier that could no
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

// TestDeadLogEndsEveryReservation races reservations that wait for
// ring room and reservations that wait for head against the log's
// death. On the minimum ring with two marks, inserters append records
// of up to 128 KiB, which keep the ring full, and of under 200 B, whose
// tickets run a ring of marks past head; the device fails under them,
// or Close runs. A reservation that fails leaves a gap no copy fills,
// and a ticket a ring past it waits on a head that never passes it: so
// both waits must end on a dead log, every inserter returning and Close
// returning. The device then holds whole records only, below the first
// gap: a scan ends at the durable frontier with no ErrCorrupt, and
// finds exactly the records appended below it.
func TestDeadLogEndsEveryReservation(t *testing.T) {
	defer func(n int) { frontierMarks = n }(frontierMarks)
	frontierMarks = 2
	for _, kind := range BufferKinds() {
		for _, poison := range []bool{true, false} {
			name := kind.String() + "/close"
			if poison {
				name = kind.String() + "/poison"
			}
			t.Run(name, func(t *testing.T) {
				for life := uint64(1); life <= 10 && !t.Failed(); life++ {
					endReservations(t, kind, poison, rng.New(life))
				}
			})
		}
	}
}

// endReservations runs one log to its death: its device fails past a
// random offset (poison), or Close runs after a random delay.
func endReservations(t *testing.T, kind BufferKind, poison bool, src *rng.Source) {
	dev := NewMem()
	bang := errors.New("disk on fire")
	if poison {
		dev.FailAfter(int64(1+src.Intn(2<<20)), bang)
	}
	l, err := New(dev, Options{Kind: kind, BufferSize: EncodedSize(MaxPayload), SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	const inserters = 12
	type appended struct {
		lsn          LSN
		page, length uint64
	}
	recs := make([][]appended, inserters)
	errs := make(chan error, inserters)
	for i := range recs {
		src := src.Split(uint64(i))
		go func() {
			payload := make([]byte, MaxPayload/2)
			for j := uint64(0); ; j++ {
				n := src.Intn(200)
				if src.Intn(8) == 0 {
					n = MaxPayload/4 + src.Intn(MaxPayload/4)
				}
				lsn, err := l.AppendFields(RecUpdate, uint64(i), NilLSN, j, 0, payload[:n])
				if err != nil {
					errs <- err
					return
				}
				recs[i] = append(recs[i], appended{lsn, j, uint64(EncodedSize(n))})
			}
		}()
	}
	closed := make(chan error, 1)
	closeLog := func() { go func() { closed <- l.Close() }() }
	if !poison {
		time.Sleep(time.Duration(src.Intn(2000)) * time.Microsecond)
		closeLog()
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < inserters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) && (!poison || !errors.Is(err, bang)) {
				t.Fatalf("insert: %v", err)
			}
			if poison && i == 0 {
				closeLog() // races the inserters still waiting
			}
		case <-deadline:
			t.Fatalf("%d of %d inserters still waiting 10 s after the log died", inserters-i, inserters)
		}
	}
	select {
	case err := <-closed:
		if poison && !errors.Is(err, bang) || !poison && err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-deadline:
		t.Fatal("Close still running 10 s after the log died")
	}

	// Close waited for the flusher, so the device is still. A write
	// that failed may have stored some of its bytes, so the device can
	// reach past the durable frontier, but not past the filled one,
	// which stops in front of the first gap.
	durable, filled := uint64(l.FlushedLSN()), uint64(l.FilledLSN())
	all := map[LSN]appended{}
	for _, rs := range recs {
		for _, r := range rs {
			all[r.lsn] = r
		}
	}
	sc, err := NewScanner(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for ; sc.Next(); found++ {
		r := sc.Record()
		if a, ok := all[r.LSN]; !ok || a.page != r.PageID || a.length != uint64(EncodedSize(len(r.Payload))) {
			t.Fatalf("the device holds a record at %d that no inserter appended there", r.LSN)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	end, below := uint64(sc.Pos()), 0
	for _, r := range all {
		if uint64(r.lsn)+r.length <= end {
			below++
		}
	}
	if end < durable || end > filled || found != below {
		t.Fatalf("scan found %d records ending at %d; %d were appended below it (durable frontier %d, filled %d)",
			found, end, below, durable, filled)
	}
}

// closeWatch counts the writes and syncs its device takes once closed
// is set.
type closeWatch struct {
	*MemDevice
	closed atomic.Bool
	late   atomic.Int64
}

func (d *closeWatch) note() {
	if d.closed.Load() {
		d.late.Add(1)
	}
}

func (d *closeWatch) WriteAt(b []byte, off int64) (int, error) {
	d.note()
	return d.MemDevice.WriteAt(b, off)
}

func (d *closeWatch) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	d.note()
	return d.MemDevice.WriteVec(offs, bufs)
}

func (d *closeWatch) Sync() error {
	d.note()
	return d.MemDevice.Sync()
}

// Close returns only after the flusher has: the device, which an engine
// closes next, takes no write once Close has returned. Inserters append
// and kick the flusher until the log refuses them, so a kick may be
// pending beside the closed done when the flusher last selects, and
// records filled after Close's final flush give that late flush
// something to write. A log with no flusher closes too.
func TestCloseWaitsForTheFlusher(t *testing.T) {
	const lives, inserters = 100, 4
	src := rng.New(7)
	devs := make([]*closeWatch, lives)
	for i := range devs {
		dev := &closeWatch{MemDevice: NewMem()}
		devs[i] = dev
		l, err := New(dev, Options{Kind: BufferKinds()[i%len(BufferKinds())], SyncOnFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := range inserters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := l.AppendFields(RecUpdate, uint64(w), NilLSN, 0, 0, []byte("x")); err != nil {
						return
					}
					l.kickFlusher(causeDemand)
				}
			}()
		}
		time.Sleep(time.Duration(src.Intn(300)) * time.Microsecond)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		dev.closed.Store(true)
		wg.Wait()
	}
	time.Sleep(20 * time.Millisecond) // a flusher Close left running writes by now
	for i, dev := range devs {
		if n := dev.late.Load(); n != 0 {
			t.Fatalf("life %d: the device took %d writes and syncs after Close returned", i, n)
		}
	}
	if err := newStoppedLog(t, NewMem(), Options{}).Close(); err != nil {
		t.Fatalf("closing a log with no flusher: %v", err)
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
