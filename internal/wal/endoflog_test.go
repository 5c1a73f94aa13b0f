package wal

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

// recLen is the encoded size of the records commitN appends.
const recLen = 51

// commitN appends n one-record "transactions" tagged base.. and waits
// for the last to be durable.
func commitN(t testing.TB, l *Log, base, n int) {
	t.Helper()
	var last LSN
	for i := 0; i < n; i++ {
		lsn, err := l.Append(&Record{Type: RecCommit, TxnID: uint64(base + i), Payload: []byte("0123456789")})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := l.WaitFlushed(last); err != nil {
		t.Fatal(err)
	}
}

// wantTxns asserts the log on dev is exactly the records tagged ids.
func wantTxns(t testing.TB, dev Device, ids ...uint64) {
	t.Helper()
	recs, err := scanAll(dev, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var got []uint64
	for _, r := range recs {
		got = append(got, r.TxnID)
	}
	if len(got) != len(ids) {
		t.Fatalf("log holds txns %v, want %v", got, ids)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("log holds txns %v, want %v", got, ids)
		}
	}
}

// A log cut mid-record must resume at the end of the last whole record,
// not after the torn bytes: before, New resumed at the device size and
// every later commit sat behind garbage no scan could cross.
func TestResumeAfterTornTailMem(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Serial, dev)
	commitN(t, l, 0, 3)
	last := l.NextLSN() - recLen
	l.Close()
	dev.SetEnd(int64(last) + 20) // mid-way through txn 2

	l = newTestLog(t, Serial, dev)
	if got := l.NextLSN(); got != last {
		t.Fatalf("resumed at %d, want %d (end of the last whole record)", got, last)
	}
	commitN(t, l, 10, 2)
	l.Close()

	l = newTestLog(t, Serial, dev) // the reopen that used to fail or lose 10, 11
	defer l.Close()
	wantTxns(t, dev, 0, 1, 10, 11)
}

// The same over files, where a torn record keeps its full length in the
// preallocated space and reads as half record, half zeros, and the
// segments past it must go.
func TestResumeAfterTornTailFile(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		l := newTestLog(t, Consolidated, d)
		commitN(t, l, 0, 6) // 306 bytes: segments 0, 128, 256
		kill(t, l, d)
		// Tear txn 3 (bytes 153..204): its second half and everything
		// after it never reached the disk. (The crash image where a later
		// write reached the disk and an earlier one did not is out of
		// scope.)
		const last = 3 * recLen
		sh.plainWrite(t, dir, make([]byte, 6*recLen-(last+recLen/2)), last+recLen/2)

		d = sh.open(t, dir)
		l = newTestLog(t, Consolidated, d)
		if got := l.NextLSN(); got != last {
			t.Fatalf("resumed at %d, want %d", got, last)
		}
		if d.Segments() != sh.segments(last) {
			t.Fatalf("%d segments left for a %d-byte log, want %d", d.Segments(), last, sh.segments(last))
		}
		commitN(t, l, 10, 3)
		l.Close()
		d.Close()

		d = sh.open(t, dir)
		defer d.Close()
		l = newTestLog(t, Consolidated, d)
		defer l.Close()
		wantTxns(t, d, 0, 1, 2, 10, 11, 12)
	})
}

// Kill the process after every append and reopen the files as they are
// — preallocated tails and all: the log is exactly what was flushed,
// every reader sees exactly that, and it keeps growing from there.
func TestCrashAtEveryAppend(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, _ string) {
		for k := 0; k <= 6; k++ {
			dir := t.TempDir()
			dev := sh.open(t, dir)
			l := newTestLog(t, Consolidated, dev)
			var ids []uint64
			if k > 0 {
				commitN(t, l, 0, k)
				for i := 0; i < k; i++ {
					ids = append(ids, uint64(i))
				}
			}
			kill(t, l, dev)

			// A reader that never runs New (hydra-recover): the
			// device's size is only an upper bound, the scan finds the end.
			dev = sh.open(t, dir)
			wantTxns(t, dev, ids...)

			// New finds the same end and makes it the device's.
			l = newTestLog(t, Consolidated, dev)
			end := int64(k * recLen)
			if got := int64(l.NextLSN()); got != end {
				t.Fatalf("k=%d: resumed at %d, want %d", k, got, end)
			}
			if sz, _ := dev.Size(); sz != end {
				t.Fatalf("k=%d: device size %d, want the logical end %d", k, sz, end)
			}
			buf := make([]byte, 2*recLen)
			if n, _ := dev.ReadAt(buf, end-min(end, recLen)); int64(n) != min(end, recLen) {
				t.Fatalf("k=%d: read across the logical end returned %d bytes, want %d", k, n, min(end, recLen))
			}
			if n, _ := dev.ReadAt(buf, end+5); n != 0 {
				t.Fatalf("k=%d: read past the logical end returned %d bytes", k, n)
			}

			commitN(t, l, 100, 1)
			live := sh.logFiles(t, dir)
			if len(live) != sh.segments(end+recLen) {
				t.Fatalf("k=%d: live log is %d files, want %d", k, len(live), sh.segments(end+recLen))
			}
			for path, size := range live {
				if size != sh.step() {
					t.Fatalf("k=%d: live %s is %d bytes, want one preallocated step of %d", k, path, size, sh.step())
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := dev.Close(); err != nil {
				t.Fatal(err)
			}
			// A clean close leaves exactly the records.
			if got := total(sh.logFiles(t, dir)); got != end+recLen {
				t.Fatalf("k=%d: closed log is %d bytes on disk, want %d", k, got, end+recLen)
			}
			dev = sh.open(t, dir)
			wantTxns(t, dev, append(ids, 100)...)
			dev.Close()
		}
	})
}

// The crash image only a preallocating, segmented device can leave: a
// flush that crossed into a new segment died after creating it, so the
// last written segment ends in preallocated zeros and its successor is
// there, preallocated and empty. The log ends at the last valid record
// and the successor goes.
func TestCrashWithEmptyPreallocatedSuccessor(t *testing.T) {
	sh := devShapes(128)[1]
	dir := t.TempDir()
	d := sh.open(t, dir)
	l := newTestLog(t, Consolidated, d)
	commitN(t, l, 0, 2) // 102 bytes, all in segment 0
	kill(t, l, d)
	succ, _ := sh.file(dir, 128)
	if err := os.WriteFile(succ, make([]byte, 128), 0o644); err != nil {
		t.Fatal(err)
	}

	d = sh.open(t, dir)
	if sz, _ := d.Size(); sz != 256 {
		t.Fatalf("device size %d before the scan, want the end of the successor, 256", sz)
	}
	wantTxns(t, d, 0, 1)
	l = newTestLog(t, Consolidated, d)
	if got := l.NextLSN(); got != 2*recLen {
		t.Fatalf("resumed at %d, want %d", got, 2*recLen)
	}
	if _, err := os.Stat(succ); !os.IsNotExist(err) || d.Segments() != 1 {
		t.Fatalf("the empty successor survived: stat err = %v, %d segments", err, d.Segments())
	}
	commitN(t, l, 10, 2) // grows back over the boundary
	l.Close()
	d.Close()

	d = sh.open(t, dir)
	defer d.Close()
	wantTxns(t, d, 0, 1, 10, 11)
}

// The formats are unchanged: a log written with plain file IO in the
// layout of the two devices this one replaced — wal.log with LSN = file
// offset, or wal/seg-<start>.wal, files as long as the bytes written —
// and crashed with a torn tail opens, ends at the last whole record and
// grows from there.
func TestOpensEarlierLayoutWithTornTail(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		var img []byte
		for i := 0; i < 6; i++ {
			rec := make([]byte, recLen)
			if _, err := Encode(&Record{Type: RecCommit, TxnID: uint64(i), Payload: []byte("0123456789")}, rec); err != nil {
				t.Fatal(err)
			}
			img = append(img, rec...)
		}
		sh.plainWrite(t, dir, img[:5*recLen+20], 0) // txn 5 torn

		d := sh.open(t, dir)
		wantTxns(t, d, 0, 1, 2, 3, 4)
		l := newTestLog(t, Serial, d)
		if got := l.NextLSN(); got != 5*recLen {
			t.Fatalf("resumed at %d, want %d", got, 5*recLen)
		}
		commitN(t, l, 10, 2)
		l.Close()
		d.Close()

		d = sh.open(t, dir)
		defer d.Close()
		wantTxns(t, d, 0, 1, 2, 3, 4, 10, 11)
	})
}

// A bad record is a torn tail only when nothing valid follows it.
func TestBadRecordTornTailOrCorrupt(t *testing.T) {
	build := func() *MemDevice {
		dev := NewMem()
		l := newTestLog(t, Serial, dev)
		commitN(t, l, 0, 5)
		l.Close()
		return dev
	}
	flip := func(dev *MemDevice, off int64) {
		var b [1]byte
		dev.ReadAt(b[:], off)
		b[0] ^= 0xff
		dev.WriteAt(b[:], off)
	}

	t.Run("last record bad crc", func(t *testing.T) {
		dev := build()
		flip(dev, 4*recLen+45)
		wantTxns(t, dev, 0, 1, 2, 3)
	})
	t.Run("last record bad length", func(t *testing.T) {
		dev := build()
		dev.WriteAt([]byte{7, 0, 0, 0}, 4*recLen) // below headerSize
		wantTxns(t, dev, 0, 1, 2, 3)
	})
	t.Run("zero length word ends the log", func(t *testing.T) {
		dev := build()
		dev.WriteAt(make([]byte, 3*recLen), 5*recLen)
		wantTxns(t, dev, 0, 1, 2, 3, 4)
	})
	for name, damage := range map[string]func(*MemDevice){
		"mid-log bad crc":    func(dev *MemDevice) { flip(dev, 2*recLen+45) },
		"mid-log bad length": func(dev *MemDevice) { dev.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, 2*recLen) },
		// A wrong but plausible length must not send the scanner
		// looking for the successor in the wrong place.
		"mid-log wrong length": func(dev *MemDevice) { dev.WriteAt([]byte{recLen + 3, 0, 0, 0}, 2*recLen) },
	} {
		t.Run(name, func(t *testing.T) {
			dev := build()
			damage(dev)
			if _, err := scanAll(dev, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan over mid-log damage: err = %v, want ErrCorrupt", err)
			}
			// Appending after it would bury acknowledged commits.
			if _, err := New(dev, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("New over mid-log damage: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// NewFrom starts its scan at the given boundary and falls back to the
// start of the log when the boundary lies beyond the device.
func TestNewFromScansFromBoundary(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Serial, dev)
	commitN(t, l, 0, 4)
	end := l.NextLSN()
	l.Close()
	for _, from := range []LSN{0, 2 * recLen, end, end + 1000} {
		l, err := NewFrom(dev, Options{}, from)
		if err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		if got := l.NextLSN(); got != end {
			t.Fatalf("from %d: resumed at %d, want %d", from, got, end)
		}
		l.Close()
	}
}

// commitTxn logs one transaction the way core does for an autocommitted
// write: begin, update, commit, wait for durability, end.
func commitTxn(l *Log, id uint64, row []byte) error {
	begin, err := l.AppendFields(RecBegin, id, NilLSN, 0, NilLSN, nil)
	if err != nil {
		return err
	}
	if _, err := l.AppendFields(RecUpdate, id, begin, 1, NilLSN, row); err != nil {
		return err
	}
	commit, err := l.AppendFields(RecCommit, id, begin, 0, NilLSN, nil)
	if err != nil {
		return err
	}
	if err := l.WaitFlushed(commit); err != nil {
		return err
	}
	_, err = l.AppendFields(RecEnd, id, commit, 0, NilLSN, nil)
	return err
}

// N serial durable commits cost exactly N syncs: the begin record no
// longer starts a flush the commit record misses, and the end record
// rides the next transaction's sync instead of buying its own.
func TestSerialCommitsCostOneSyncEach(t *testing.T) {
	for _, kind := range BufferKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			dev := NewMem()
			l, err := New(dev, Options{Kind: kind, SyncOnFlush: true, FlushInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const n = 200
			for i := 1; i <= n; i++ {
				if err := commitTxn(l, uint64(i), []byte("row")); err != nil {
					t.Fatal(err)
				}
			}
			st := l.StatsSnapshot()
			if dev.DeviceStats().Syncs != n || st.FlushSyncs != n {
				t.Fatalf("%d commits cost %d device syncs (%d by the flusher), want exactly %d", n, dev.DeviceStats().Syncs, st.FlushSyncs, n)
			}
			if st.FlushesDemand != n || st.FlushesPressure != 0 || st.FlushesTick != 0 {
				t.Fatalf("flush causes demand=%d pressure=%d tick=%d, want %d/0/0", st.FlushesDemand, st.FlushesPressure, st.FlushesTick, n)
			}
		})
	}
}

// Records nobody waits for (async commit) still reach the device, on
// the FlushInterval tick.
func TestUnawaitedRecordsFlushOnTick(t *testing.T) {
	dev := NewMem()
	l, err := New(dev, Options{Kind: Consolidated, SyncOnFlush: true, FlushInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.FlushedLSN() <= lsn {
		if time.Now().After(deadline) {
			t.Fatal("unawaited record never reached the device")
		}
		time.Sleep(time.Millisecond)
	}
	if st := l.StatsSnapshot(); st.FlushesTick != 1 || st.FlushesDemand != 0 {
		t.Fatalf("flush causes demand=%d tick=%d, want 0/1", st.FlushesDemand, st.FlushesTick)
	}
}

// Inserts start a flush only to relieve the ring: one that crosses half
// occupancy kicks the flusher, one below it does not.
func TestRingPressureKicksFlusher(t *testing.T) {
	l := newStoppedLog(t, NewMem(), Options{Kind: Decoupled, BufferSize: 512 << 10})
	rec := make([]byte, EncodedSize(MaxPayload/2))
	if _, err := Encode(&Record{Type: RecUpdate, Payload: bytes.Repeat([]byte("p"), MaxPayload/2)}, rec); err != nil {
		t.Fatal(err)
	}
	kicked := func() bool {
		select {
		case <-l.kick:
			return true
		default:
			return false
		}
	}
	if _, err := l.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if kicked() {
		t.Fatal("an insert into a quarter-full ring kicked the flusher")
	}
	if _, err := l.Insert(rec); err != nil { // 2 x 131113 bytes > 256 KiB
		t.Fatal(err)
	}
	if !kicked() {
		t.Fatal("crossing half occupancy did not kick the flusher")
	}
	if err := l.flushOnce(l.takeCause()); err != nil {
		t.Fatal(err)
	}
	if st := l.StatsSnapshot(); st.FlushesPressure != 1 {
		t.Fatalf("pressure flushes = %d, want 1", st.FlushesPressure)
	}
}

// A committer parked behind another writer's unfilled gap gets its
// flush when the gap closes, not at the next tick.
func TestGapCloserPassesTheKickOn(t *testing.T) {
	l := newStoppedLog(t, NewMem(), Options{Kind: Decoupled})
	l.res.Store(2<<l.lsnBits | 200)
	l.filled(1, 200) // the committer's own record, [100, 200), out of order
	l.parked.Add(1)  // ...and it is now waiting
	select {
	case <-l.kick:
		t.Fatal("kick before the gap closed")
	default:
	}
	l.filled(0, 100) // the slower writer finishes [0, 100)
	select {
	case <-l.kick:
	default:
		t.Fatal("closing the gap with a committer parked did not kick the flusher")
	}
	if l.FilledLSN() != 200 {
		t.Fatalf("filled frontier %d, want 200", l.FilledLSN())
	}
}
