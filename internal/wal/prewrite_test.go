package wal

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// checkFrontier asserts what FileDevice promises about every segment's
// written frontier: it covers the log, it stops on a stride boundary or
// with the file, and between the end of log and it the file — read
// behind the device's back — holds zeros.
func checkFrontier(t testing.TB, d *FileDevice, sh devShape, dir string) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for start, s := range d.segs {
		end := min(max(d.size-start, 0), s.alloc) // the log's bytes in this segment
		if s.written < end || s.written > s.alloc {
			t.Fatalf("segment %d: written frontier %d outside [end of log %d, file size %d]", start, s.written, end, s.alloc)
		}
		if s.written%prewriteStride != 0 && s.written != s.alloc {
			t.Fatalf("segment %d: written frontier %d is neither on a %d-byte stride nor the file's end %d", start, s.written, prewriteStride, s.alloc)
		}
		path, _ := sh.file(dir, start)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tail := make([]byte, s.written-end)
		_, err = f.ReadAt(tail, end)
		f.Close()
		if err != nil {
			t.Fatalf("segment %d: read [%d, %d) of %s: %v", start, end, s.written, path, err)
		}
		if i := bytes.IndexFunc(tail, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("segment %d: byte %d of %s, between the end of log %d and the written frontier %d, is not zero", start, end+int64(i), path, end, s.written)
		}
	}
}

// strideSegSize is a segment size that holds two and a half strides, so
// that a segment's last pre-write is clamped.
const strideSegSize = 2*prewriteStride + prewriteStride/2

// Sequential appends of every size keep the frontier ahead of the log
// on a stride boundary, zeros are written once per stride and never
// counted as a log write, and a reader that is told nothing finds the
// end of log in front of the zeros.
func TestPrewriteKeepsFrontierAheadOfLog(t *testing.T) {
	eachShape(t, strideSegSize, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		l := newTestLog(t, Decoupled, d)
		src := rngNew(22)
		var ids []uint64
		var last LSN
		for i := 0; l.NextLSN() < 5*prewriteStride; i++ {
			payload := bytes.Repeat([]byte{byte(i) | 1}, src.IntRange(0, 9000))
			lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			ids, last = append(ids, uint64(i)), lsn
			if i%3 == 0 {
				if err := l.WaitFlushed(lsn); err != nil {
					t.Fatal(err)
				}
				checkFrontier(t, d, sh, dir)
			}
		}
		if err := l.WaitFlushed(last); err != nil {
			t.Fatal(err)
		}
		checkFrontier(t, d, sh, dir)
		end, _ := d.Size()
		st := l.StatsSnapshot()
		segs := uint64(sh.segments(end))
		if st.PrewriteBytes == 0 || st.PrewriteBytes > uint64(end)+segs*prewriteStride {
			t.Fatalf("%d bytes of zeros pre-written for %d bytes of log in %d segments, want some and at most a stride per stride", st.PrewriteBytes, end, segs)
		}
		if st.Writes > st.FlushWrites+segs-1 {
			t.Fatalf("%d device writes for %d flushes over %d segments: a pre-write was counted as a log write", st.Writes, st.FlushWrites, segs)
		}
		kill(t, l, d)

		d = sh.open(t, dir) // size: the end of the last file, zeros and preallocated space included
		defer d.Close()
		wantTxns(t, d, ids...)
	})
}

// The stride is clamped to the segment, and the next segment starts a
// frontier of its own.
func TestPrewriteClampsAtSegmentEnd(t *testing.T) {
	const segSize = strideSegSize
	sh := devShapes(segSize)[1]
	dir := t.TempDir()
	d := sh.open(t, dir)
	defer d.Close()
	for _, step := range []struct {
		off        int64
		seg, front int64 // the segment written into and its frontier afterwards
		zeros      uint64
	}{
		{0, 0, prewriteStride, prewriteStride - 10},
		{prewriteStride - 20, 0, prewriteStride, 0},                  // ends inside the stride
		{prewriteStride - 10, 0, prewriteStride, 0},                  // ends on the boundary
		{prewriteStride, 0, 2 * prewriteStride, prewriteStride - 10}, // the next write leaves it
		{2*prewriteStride + 5, 0, segSize, prewriteStride/2 - 15},    // clamped: half a stride is left
		{segSize - 5, segSize, prewriteStride, prewriteStride - 5},   // crosses into the next segment
		{segSize + prewriteStride, segSize, 2 * prewriteStride, prewriteStride - 10},
	} {
		before := d.DeviceStats().PrewriteBytes
		if _, err := d.WriteAt([]byte("0123456789"), step.off); err != nil {
			t.Fatal(err)
		}
		if got := d.segs[step.seg].written; got != step.front {
			t.Fatalf("after a write at %d: segment %d's written frontier is %d, want %d", step.off, step.seg, got, step.front)
		}
		if got := d.DeviceStats().PrewriteBytes - before; got != step.zeros {
			t.Fatalf("a write at %d pre-wrote %d bytes of zeros, want %d", step.off, got, step.zeros)
		}
		checkFrontier(t, d, sh, dir)
	}
	if got := d.segs[0].written; got != segSize {
		t.Fatalf("segment 0's written frontier moved to %d after the log left it", got)
	}
}

// The images a crash can leave around the flush that crossed a stride
// boundary: its records and its zeros went down as two writes and
// became durable in one sync, so either may be there without the other,
// or in part. Every one opens to the end of its last whole record, and
// the log grows from there.
func TestCrashAroundStrideCrossing(t *testing.T) {
	payload := bytes.Repeat([]byte("r"), 1000)
	recSize := int64(EncodedSize(len(payload)))
	crossing := int(prewriteStride / recSize) // the record that holds the first stride boundary
	var img []byte
	var ids []uint64
	for i := 0; i <= crossing; i++ {
		rec := make([]byte, recSize)
		if _, err := Encode(&Record{Type: RecCommit, TxnID: uint64(i), Payload: payload}, rec); err != nil {
			t.Fatal(err)
		}
		img = append(img, rec...)
		ids = append(ids, uint64(i))
	}
	before, end := int64(len(img))-recSize, int64(len(img)) // the last flush wrote [before, end)
	if before >= prewriteStride || end <= prewriteStride {
		t.Fatalf("record %d is [%d, %d): it does not cross the stride boundary at %d", crossing, before, end, prewriteStride)
	}
	for _, tc := range []struct {
		name  string
		data  int64    // bytes of the image on disk
		zeros [2]int64 // explicitly written zeros
	}{
		{"records written, no zeros", end, [2]int64{}},
		{"records written, zeros in part", end, [2]int64{end, end + prewriteStride/3}},
		{"records written, zeros in part from the far end", end, [2]int64{end + prewriteStride/3, 2 * prewriteStride}},
		{"records and zeros written", end, [2]int64{end, 2 * prewriteStride}},
		{"zeros written, records not", before, [2]int64{end, 2 * prewriteStride}},
		{"zeros written, records torn", before + recSize/2, [2]int64{end, 2 * prewriteStride}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachShape(t, strideSegSize, func(t *testing.T, sh devShape, dir string) {
				sh.plainWrite(t, dir, img[:tc.data], 0)
				path, _ := sh.file(dir, 0)
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				// The tail reserve left: allocated, never written.
				if err := preallocate(f, tc.data, sh.step()-tc.data); err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(make([]byte, tc.zeros[1]-tc.zeros[0]), tc.zeros[0]); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				want := ids
				if tc.data < end {
					want = ids[:crossing]
				}
				logEnd := int64(len(want)) * recSize

				d := sh.open(t, dir)
				wantTxns(t, d, want...)
				l, err := NewFrom(d, Options{Kind: Decoupled, BufferSize: 1 << 20, SyncOnFlush: true}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := int64(l.NextLSN()); got != logEnd {
					t.Fatalf("resumed at %d, want %d", got, logEnd)
				}
				commitN(t, l, 1000, 2)
				checkFrontier(t, d, sh, dir)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				d = sh.open(t, dir)
				defer d.Close()
				wantTxns(t, d, append(append([]uint64{}, want...), 1000, 1001)...)
			})
		})
	}
}

// After a crash SetEnd cuts the file at the end of log and the written
// frontier with it: the next append pre-writes afresh, from its own end
// and never over a record. After a clean Close the files are trimmed to
// the log, and all of a file found at open counts as written.
func TestPrewriteAfterReopen(t *testing.T) {
	eachShape(t, strideSegSize, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		l := newTestLog(t, Decoupled, d)
		commitN(t, l, 0, 5)
		end := int64(5 * recLen)
		kill(t, l, d)

		d = sh.open(t, dir)
		l = newTestLog(t, Decoupled, d) // finds the end, calls SetEnd
		if s := d.segs[0]; s.alloc != end || s.written != end {
			t.Fatalf("after the cut at %d: file size %d, written frontier %d", end, s.alloc, s.written)
		}
		before := d.DeviceStats().PrewriteBytes
		commitN(t, l, 10, 1)
		end += recLen
		if got, want := d.DeviceStats().PrewriteBytes-before, uint64(prewriteStride-end); got != want {
			t.Fatalf("the first append after the cut pre-wrote %d bytes, want %d: from its end %d to the stride boundary", got, want, end)
		}
		checkFrontier(t, d, sh, dir)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if got := total(sh.logFiles(t, dir)); got != end {
			t.Fatalf("closed log is %d bytes on disk, want %d", got, end)
		}

		d = sh.open(t, dir)
		defer d.Close()
		if s := d.segs[0]; s.alloc != end || s.written != end {
			t.Fatalf("adopted a closed log of %d bytes with file size %d, written frontier %d", end, s.alloc, s.written)
		}
		wantTxns(t, d, 0, 1, 2, 3, 4, 10)
	})
}

// A pre-write that fails is the flush's failure, as a failed
// preallocation is: the records are not written, the waiter gets the
// error and the log is poisoned.
func TestFailedPrewritePoisonsLog(t *testing.T) {
	eachShape(t, strideSegSize, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		l := newTestLog(t, Decoupled, d)
		// One record that all but fills the first stride, durable.
		lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 1, Payload: make([]byte, prewriteStride-1000)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitFlushed(lsn); err != nil {
			t.Fatal(err)
		}
		// The device's descriptor becomes a read-only one.
		path, _ := sh.file(dir, 0)
		ro, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		d.segs[0].f.Close()
		d.segs[0].f = ro
		d.mu.Unlock()
		writes := d.DeviceStats().Writes

		// The next record crosses into the second stride.
		lsn, err = l.Append(&Record{Type: RecCommit, TxnID: 2, Payload: make([]byte, 2000)})
		if err != nil {
			t.Fatal(err)
		}
		err = l.WaitFlushed(lsn)
		if err == nil || !strings.Contains(err.Error(), "pre-write log segment") {
			t.Fatalf("WaitFlushed = %v, want the failed pre-write", err)
		}
		if _, again := l.Append(&Record{Type: RecCommit, TxnID: 3}); again == nil || again.Error() != err.Error() {
			t.Fatalf("append on the poisoned log: %v, want %v", again, err)
		}
		if got := d.DeviceStats().Writes; got != writes {
			t.Fatalf("%d log writes went down behind the failed pre-write", got-writes)
		}
		if closeErr := l.Close(); closeErr == nil || closeErr.Error() != err.Error() {
			t.Fatalf("Close of the poisoned log: %v, want %v", closeErr, err)
		}
	})
}
