package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// devShape is one on-disk layout of the FileDevice. Every device test
// runs over both: the code under them is the same.
type devShape struct {
	name    string
	segSize int64 // 0: OpenFile's one unbounded segment
}

// devShapes is the flat wal.log and segments of segSize bytes.
func devShapes(segSize int64) []devShape {
	return []devShape{{"one unbounded segment", 0}, {fmt.Sprintf("%d-byte segments", segSize), segSize}}
}

func (sh devShape) open(t testing.TB, dir string) *FileDevice {
	t.Helper()
	var d *FileDevice
	var err error
	if sh.segSize == 0 {
		d, err = OpenFile(filepath.Join(dir, "wal.log"))
	} else {
		d, err = OpenSegmented(filepath.Join(dir, "wal"), sh.segSize)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// file returns the file that holds log offset off, and off's place in
// it, spelled out here independently of the device's own naming.
func (sh devShape) file(dir string, off int64) (string, int64) {
	if sh.segSize == 0 {
		return filepath.Join(dir, "wal.log"), off
	}
	start := off - off%sh.segSize
	return filepath.Join(dir, "wal", fmt.Sprintf("seg-%020d.wal", start)), off - start
}

// segments returns how many segment files a log of n bytes occupies.
func (sh devShape) segments(n int64) int {
	if sh.segSize == 0 || n == 0 {
		return 1
	}
	return int((n-1)/sh.segSize) + 1
}

// step is the size of a freshly created segment file: the bytes of
// log one preallocation covers.
func (sh devShape) step() int64 {
	if sh.segSize == 0 {
		return logChunk
	}
	return min(logChunk, sh.segSize)
}

// plainWrite puts b at log offset off with plain file IO, the way the
// device before preallocation did: files grow with the bytes written.
func (sh devShape) plainWrite(t testing.TB, dir string, b []byte, off int64) {
	t.Helper()
	for len(b) > 0 {
		path, at := sh.file(dir, off)
		piece := b
		if sh.segSize > 0 {
			piece = b[:min(int64(len(b)), sh.segSize-at)]
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(piece, at); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, off = b[len(piece):], off+int64(len(piece))
	}
}

// logFiles returns the sizes of the log's files under dir, by path.
func (sh devShape) logFiles(t testing.TB, dir string) map[string]int64 {
	t.Helper()
	pattern := filepath.Join(dir, "wal.log")
	if sh.segSize > 0 {
		pattern = filepath.Join(dir, "wal", "seg-*.wal")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = st.Size()
	}
	return sizes
}

func total(sizes map[string]int64) (n int64) {
	for _, s := range sizes {
		n += s
	}
	return n
}

// eachShape runs fn as a subtest per layout, each in its own directory.
func eachShape(t *testing.T, segSize int64, fn func(t *testing.T, sh devShape, dir string)) {
	for _, sh := range devShapes(segSize) {
		t.Run(sh.name, func(t *testing.T) { fn(t, sh, t.TempDir()) })
	}
}

// kill abandons a FileDevice the way SIGKILL would: the descriptors go
// away, the files keep their preallocated tails.
func kill(t testing.TB, l *Log, d *FileDevice) {
	t.Helper()
	d.mu.Lock()
	for _, s := range d.segs {
		if err := s.f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Unlock()
	l.Close() // stops the flusher; its writes fail on the closed files
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	return len(ents)
}

func TestFileDeviceWriteReadAcrossBoundaries(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		data := bytes.Repeat([]byte("abcdefghij"), 35) // 350 bytes: 3 segments
		if _, err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if n, _ := d.Size(); n != 350 {
			t.Fatalf("size = %d", n)
		}
		if d.Segments() != sh.segments(350) {
			t.Fatalf("segments = %d, want %d", d.Segments(), sh.segments(350))
		}
		back := make([]byte, 350)
		if n, err := d.ReadAt(back, 0); n != 350 || err != nil {
			t.Fatalf("read %d, %v", n, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
		// Unaligned read crossing two boundaries.
		part := make([]byte, 200)
		if n, _ := d.ReadAt(part, 95); n != 200 {
			t.Fatalf("cross read = %d", n)
		}
		if !bytes.Equal(part, data[95:295]) {
			t.Fatal("cross-boundary read mismatch")
		}
	})
}

func TestFileDeviceReopenResumes(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		d.WriteAt(bytes.Repeat([]byte("x"), 300), 0)
		d.Sync()
		d.Close()

		d2 := sh.open(t, dir)
		defer d2.Close()
		if n, _ := d2.Size(); n != 300 {
			t.Fatalf("reopened size = %d", n)
		}
		back := make([]byte, 300)
		if n, _ := d2.ReadAt(back, 0); n != 300 || back[299] != 'x' {
			t.Fatalf("reopened read = %d", n)
		}
	})
}

// Whole segments below the truncation point go; one unbounded segment
// never lies below anything.
func TestFileDeviceTruncateBefore(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		d.WriteAt(bytes.Repeat([]byte("y"), 1000), 0)
		removed, err := d.TruncateBefore(450)
		if err != nil {
			t.Fatal(err)
		}
		wantRemoved, wantBase := 0, int64(0)
		if sh.segSize > 0 {
			wantRemoved, wantBase = 3, 384 // [0,128) .. [256,384) lie fully below 450
		}
		if removed != wantRemoved || d.Base() != wantBase {
			t.Fatalf("removed %d segments, base %d; want %d, %d", removed, d.Base(), wantRemoved, wantBase)
		}
		if d.Bounded() != (sh.segSize > 0) {
			t.Fatalf("Bounded() = %v", d.Bounded())
		}
		// Reads above the truncation point still work.
		back := make([]byte, 100)
		if n, err := d.ReadAt(back, 500); n != 100 || err != nil {
			t.Fatalf("read above truncation: %d, %v", n, err)
		}
		// Reads below fail loudly.
		if _, err := d.ReadAt(back, 50); (err != nil) != (removed > 0) {
			t.Fatalf("read below the truncation point: err = %v with %d segments removed", err, removed)
		}
		// Size is unchanged (logical end of log).
		if n, _ := d.Size(); n != 1000 {
			t.Fatalf("size after truncation = %d", n)
		}
	})
}

// Full stack: a Log over the device takes the vectored path, one
// submission per flush, and scans back — also from above a truncation.
func TestFileDeviceAsLogDevice(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		l := newTestLog(t, Decoupled, d)
		for i := 0; i < 200; i++ {
			lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: bytes.Repeat([]byte("p"), 100)})
			if err != nil {
				t.Fatal(err)
			}
			if i%50 == 0 {
				if err := l.WaitFlushed(lsn); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		end, _ := d.Size()
		if d.Segments() != sh.segments(end) {
			t.Fatalf("%d segments for %d bytes of log, want %d", d.Segments(), end, sh.segments(end))
		}
		st := l.StatsSnapshot()
		if st.VecWrites == 0 || st.FlushWrites != st.VecWrites {
			t.Fatalf("flusher submissions %d != device WriteVec calls %d (flusher bypassed the vectored path)", st.FlushWrites, st.VecWrites)
		}
		if st.SegSyncs == 0 {
			t.Fatal("no segment syncs recorded")
		}
		recs, err := scanAll(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 200 {
			t.Fatalf("scanned %d records", len(recs))
		}
		// Truncate below the 100th record and scan from there.
		if _, err := d.TruncateBefore(recs[100].LSN); err != nil {
			t.Fatal(err)
		}
		tail, err := scanAll(d, recs[100].LSN)
		if err != nil {
			t.Fatal(err)
		}
		if len(tail) != 100 || tail[99].TxnID != 199 {
			t.Fatalf("tail scan lost records: %d", len(tail))
		}
		// A reader that knows only the base finds the first whole
		// record at or above it.
		sc, err := NewScanner(d, LSN(d.Base()))
		if err != nil {
			t.Fatal(err)
		}
		if !sc.SeekRecord() || !sc.Next() {
			t.Fatalf("no record found from base %d: %v", d.Base(), sc.Err())
		}
		if first := sc.Record(); int64(first.LSN) < d.Base() || int64(first.LSN) >= d.Base()+200 || first.LSN != recs[first.TxnID].LSN {
			t.Fatalf("seek from base %d landed on LSN %d (txn %d)", d.Base(), first.LSN, first.TxnID)
		}
	})
}

// Property: arbitrary write/read patterns against the device agree
// with a flat reference buffer.
func TestFileDeviceAgainstReferenceModel(t *testing.T) {
	eachShape(t, 257, func(t *testing.T, sh devShape, dir string) { // deliberately odd segment size
		d := sh.open(t, dir)
		defer d.Close()
		ref := make([]byte, 0, 1<<16)
		src := rngNew(77)
		for op := 0; op < 2000; op++ {
			off := int64(src.Intn(1 << 14))
			n := src.IntRange(1, 600)
			buf := make([]byte, n)
			src.Bytes(buf)
			if _, err := d.WriteAt(buf, off); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			if int(off)+n > len(ref) {
				grown := make([]byte, int(off)+n)
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], buf)

			// Random read-back check.
			roff := int64(src.Intn(len(ref)))
			rn := src.IntRange(1, 600)
			if int(roff)+rn > len(ref) {
				rn = len(ref) - int(roff)
			}
			got := make([]byte, rn)
			n2, err := d.ReadAt(got, roff)
			if err != nil || n2 != rn {
				t.Fatalf("op %d read at %d: %d, %v", op, roff, n2, err)
			}
			if !bytes.Equal(got, ref[roff:int(roff)+rn]) {
				t.Fatalf("op %d: mismatch at %d..%d", op, roff, int(roff)+rn)
			}
		}
		if sz, _ := d.Size(); sz != int64(len(ref)) {
			t.Fatalf("size %d, ref %d", sz, len(ref))
		}
	})
}

// A directory written with one segment size must not open under
// another: every offset would be mis-addressed. The files opened before
// the refusal are closed again.
func TestOpenSegmentedErrors(t *testing.T) {
	if _, err := OpenSegmented(t.TempDir(), 0); err == nil {
		t.Fatal("zero segment size accepted")
	}
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := OpenSegmented(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteAt(bytes.Repeat([]byte("s"), 300), 0) // seg 0, 128, 256
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for _, size := range []int64{64, 256, 100} { // files too long; a start off the grid; both
		if d, err := OpenSegmented(dir, size); err == nil {
			d.Close()
			t.Fatalf("a log of 128-byte segments opened as %d-byte segments", size)
		} else if !strings.Contains(err.Error(), "another segment size") {
			t.Fatalf("size %d: %v", size, err)
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after the refused opens, %d before", after, before)
	}
	if size, err := SegmentSize(dir); err != nil || size != 128 {
		t.Fatalf("SegmentSize = %d, %v; want 128", size, err)
	}
	d, err = OpenSegmented(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// rngNew avoids importing internal/rng just for this file's property
// test (wal must stay dependency-light).
func rngNew(seed uint64) *miniRand { return &miniRand{s: seed*2654435761 + 1} }

type miniRand struct{ s uint64 }

func (r *miniRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
func (r *miniRand) Intn(n int) int { return int(r.next() % uint64(n)) }
func (r *miniRand) IntRange(lo, hi int) int {
	return lo + r.Intn(hi-lo+1)
}
func (r *miniRand) Bytes(b []byte) {
	for i := range b {
		b[i] = byte(r.next())
	}
}

// ReadAt must clamp each piece to the logical end of log instead of
// zero-padding to the full in-segment length.
func TestFileDeviceReadAtClampsToLogicalEnd(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		if _, err := d.WriteAt(bytes.Repeat([]byte("a"), 50), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 80)
		if n, _ := d.ReadAt(buf, 0); n != 50 {
			t.Fatalf("read past logical end: n = %d, want 50", n)
		}
		// Entirely past the end: zero bytes, not a segment's worth of
		// zeros.
		if n, _ := d.ReadAt(buf, 50); n != 0 {
			t.Fatalf("read at logical end returned %d bytes", n)
		}
		if n, _ := d.ReadAt(buf, 70); n != 0 {
			t.Fatalf("read beyond logical end returned %d bytes", n)
		}
		// A sparse hole inside the log still reads as zeros up to size.
		if _, err := d.WriteAt([]byte("zzzzzzzzzz"), 290); err != nil {
			t.Fatal(err)
		}
		whole := bytes.Repeat([]byte("?"), 400)
		if n, _ := d.ReadAt(whole, 0); n != 300 {
			t.Fatalf("whole read = %d, want 300 (logical size)", n)
		}
		if whole[40] != 'a' || whole[60] != 0 || whole[150] != 0 || whole[295] != 'z' {
			t.Fatal("sparse-region content mismatch")
		}
	})
}

// A failed os.Remove during TruncateBefore must not leave the closed
// *os.File in the live segment map, where later operations would hit
// "file already closed". (One unbounded segment is never removed.)
func TestTruncateBeforeRemoveFailureDropsSegment(t *testing.T) {
	sh := devShapes(128)[1]
	dir := t.TempDir()
	d := sh.open(t, dir)
	defer d.Close()
	if _, err := d.WriteAt(bytes.Repeat([]byte("y"), 300), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sabotage segment 0's path: replace the file with a non-empty
	// directory so os.Remove fails after the file handle is closed.
	seg0, _ := sh.file(dir, 0)
	if err := os.Remove(seg0); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seg0, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TruncateBefore(260); err == nil {
		t.Fatal("TruncateBefore succeeded despite unremovable segment")
	}
	// The failed segment must be gone from the live map: a retry (and
	// any sync) must not see its closed file. Segments the loop had
	// not reached yet may legitimately remain for the retry.
	d.mu.Lock()
	_, retained := d.segs[0]
	d.mu.Unlock()
	if retained {
		t.Fatal("closed segment 0 still in live map after failed truncation")
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync after failed truncation: %v", err)
	}
	if _, err := d.TruncateBefore(260); err != nil {
		t.Fatalf("truncation retry hit retained state: %v", err)
	}
	// The device keeps working for fresh writes and reads.
	if _, err := d.WriteAt([]byte("new"), 300); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

// A vector becomes one submission per touched segment file.
func TestFileDeviceWriteVecPerSegmentSubmissions(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		// Two contiguous buffers covering [30, 280): segments 0, 128, 256.
		b1 := bytes.Repeat([]byte("A"), 120)
		b2 := bytes.Repeat([]byte("B"), 130)
		n, err := d.WriteVec([]int64{30, 150}, [][]byte{b1, b2})
		if err != nil {
			t.Fatal(err)
		}
		if n != 250 {
			t.Fatalf("WriteVec wrote %d, want 250", n)
		}
		st := d.DeviceStats()
		if st.VecWrites != 1 {
			t.Fatalf("vec writes = %d, want 1", st.VecWrites)
		}
		if want := sh.segments(280); st.Writes != uint64(want) || len(d.dirty) != want {
			t.Fatalf("%d write submissions, %d dirty segments; want %d of each (one per touched segment)", st.Writes, len(d.dirty), want)
		}
		if sz, _ := d.Size(); sz != 280 {
			t.Fatalf("size = %d, want 280", sz)
		}
		back := make([]byte, 250)
		if n, err := d.ReadAt(back, 30); n != 250 || err != nil {
			t.Fatalf("read back %d, %v", n, err)
		}
		if !bytes.Equal(back, append(append([]byte{}, b1...), b2...)) {
			t.Fatal("vectored write content mismatch")
		}
		// Non-contiguous pairs in one segment still land correctly.
		if _, err := d.WriteVec([]int64{300, 350}, [][]byte{[]byte("xx"), []byte("yy")}); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 2)
		d.ReadAt(got, 350)
		if string(got) != "yy" {
			t.Fatalf("gap vector content = %q", got)
		}
	})
}

// Sync must sync only segments written since the last sync.
func TestFileDeviceDirtyOnlySync(t *testing.T) {
	eachShape(t, 128, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		if _, err := d.WriteAt(bytes.Repeat([]byte("d"), 1000), 0); err != nil {
			t.Fatal(err)
		}
		segs := uint64(sh.segments(1000)) // 8 when bounded
		if uint64(len(d.dirty)) != segs {
			t.Fatalf("dirty = %d, want %d", len(d.dirty), segs)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := d.DeviceStats(); st.SegSyncs != segs || len(d.dirty) != 0 {
			t.Fatalf("first sync synced %d segments and left %d dirty, want %d and 0", st.SegSyncs, len(d.dirty), segs)
		}
		// Touch one segment: the next sync must sync exactly one file
		// and skip the others.
		if _, err := d.WriteAt([]byte("!"), 505); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := d.DeviceStats(); st.SegSyncs != segs+1 || st.SegSyncSkips != segs-1 {
			t.Fatalf("dirty-only sync: %d synced in total, %d skipped; want %d, %d", st.SegSyncs, st.SegSyncSkips, segs+1, segs-1)
		}
		// A clean sync syncs nothing.
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := d.DeviceStats(); st.SegSyncs != segs+1 {
			t.Fatalf("clean sync synced segments: %d", st.SegSyncs)
		}
	})
}

// A segment file is preallocated in logChunk steps, up to its size.
func TestFileDeviceExtendsPerChunk(t *testing.T) {
	type write struct {
		off  int64
		want uint64 // extends so far
	}
	for _, tc := range []struct {
		sh     devShape
		writes []write
	}{
		{devShape{"one unbounded segment", 0}, []write{{0, 1}, {logChunk / 2, 1}, {logChunk - 1, 2}, {logChunk + 10, 2}}},
		// Segments smaller than a chunk: one step each, at creation.
		{devShape{"128-byte segments", 128}, []write{{0, 1}, {100, 1}, {127, 2}, {200, 2}, {256, 3}}},
		// Segments of a chunk and a half: two steps each.
		{devShape{"24 MiB segments", logChunk * 3 / 2}, []write{{0, 1}, {logChunk - 1, 2}, {logChunk*3/2 - 2, 2}, {logChunk*3/2 - 1, 3}}},
	} {
		t.Run(tc.sh.name, func(t *testing.T) {
			dir := t.TempDir()
			d := tc.sh.open(t, dir)
			defer d.Close()
			for _, w := range tc.writes {
				if _, err := d.WriteAt([]byte("ab"), w.off); err != nil {
					t.Fatal(err)
				}
				if got := d.DeviceStats().Extends; got != w.want {
					t.Fatalf("after a write at %d: %d extends, want %d", w.off, got, w.want)
				}
			}
			for path, size := range tc.sh.logFiles(t, dir) {
				if tc.sh.segSize > 0 && size > tc.sh.segSize {
					t.Fatalf("%s preallocated to %d bytes, past its %d-byte segment", path, size, tc.sh.segSize)
				}
			}
		})
	}
}

// -race stress over the full path — Decoupled inserts through
// vectored flushes into the device while TruncateBefore rotates old
// segments out underneath.
func TestFileDeviceVectoredTruncateStress(t *testing.T) {
	const segSize = 8192
	eachShape(t, segSize, func(t *testing.T, sh devShape, dir string) {
		d := sh.open(t, dir)
		defer d.Close()
		l, err := New(d, Options{Kind: Decoupled, BufferSize: 1 << 20, SyncOnFlush: true, FlushInterval: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}

		const workers = 8
		const perWorker = 400
		var mu sync.Mutex
		lsns := make(map[LSN]uint64, workers*perWorker)

		var wg, twg sync.WaitGroup
		stopTrunc := make(chan struct{})
		// Truncator: rotate segments that lie entirely below the durable
		// frontier, keeping a two-segment safety margin.
		twg.Add(1)
		go func() {
			defer twg.Done()
			for {
				select {
				case <-stopTrunc:
					return
				case <-time.After(200 * time.Microsecond):
				}
				horizon := int64(l.FlushedLSN()) - 2*segSize
				if horizon > 0 {
					if _, err := d.TruncateBefore(LSN(horizon)); err != nil {
						t.Errorf("truncate: %v", err)
						return
					}
				}
			}
		}()

		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				payload := bytes.Repeat([]byte{byte('a' + w)}, 64+w*16)
				for i := 0; i < perWorker; i++ {
					lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(w)<<32 | uint64(i), Payload: payload})
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					mu.Lock()
					lsns[lsn] = uint64(w)<<32 | uint64(i)
					mu.Unlock()
					if i%64 == 0 {
						if err := l.WaitFlushed(lsn); err != nil {
							t.Errorf("wait: %v", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(stopTrunc)
		twg.Wait()
		if t.Failed() {
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Scan from the first whole record at or above the truncation
		// base; everything from there must be contiguous and intact.
		base := d.Base()
		var starts []LSN
		for lsn := range lsns {
			starts = append(starts, lsn)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		var from LSN
		for _, lsn := range starts {
			if int64(lsn) >= base {
				from = lsn
				break
			}
		}
		recs, err := scanAll(d, from)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("no records survived")
		}
		pos := from
		for _, r := range recs {
			if r.LSN != pos {
				t.Fatalf("gap at %d, expected %d", r.LSN, pos)
			}
			if want, ok := lsns[r.LSN]; !ok || r.TxnID != want {
				t.Fatalf("record at %d carries tag %d, want %d", r.LSN, r.TxnID, want)
			}
			pos += LSN(EncodedSize(len(r.Payload)))
		}
		st := l.StatsSnapshot()
		if st.VecWrites == 0 {
			t.Fatal("stress never exercised the vectored path")
		}
		if sh.segSize > 0 && base == 0 {
			t.Fatal("stress never recycled a segment")
		}
		t.Logf("flushes=%d vec_writes=%d seg_syncs=%d seg_sync_skips=%d extends=%d truncated_to=%d scanned=%d",
			st.Flushes, st.VecWrites, st.SegSyncs, st.SegSyncSkips, st.Extends, base, len(recs))
	})
}
