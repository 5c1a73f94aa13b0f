package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// newStoppedLog builds a Log with no background flusher, so tests can
// drive flushOnce deterministically (e.g. to pin the exact submission
// shape of a wrap-around flush).
func newStoppedLog(t testing.TB, dev Device, opts Options) *Log {
	t.Helper()
	opts.fill()
	l := &Log{
		opts: opts,
		dev:  dev,
		ring: ringBuf{buf: make([]byte, opts.BufferSize), mask: uint64(opts.BufferSize) - 1},
		fr:   newFrontier(),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	l.vw, _ = dev.(VectorWriter)
	l.dsr, _ = dev.(StatsReporter)
	l.space = sync.NewCond(&l.mu)
	if opts.Kind == Consolidated {
		l.ca = newConsArray(opts.Slots)
	}
	return l
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
	preWrites := dev.Writes()

	payload := bytes.Repeat([]byte("w"), 200)
	rec := make([]byte, EncodedSize(len(payload)))
	if _, err := Encode(&Record{Type: RecUpdate, TxnID: 7, Payload: payload}, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := l.insertSerial(rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.flushOnce(causeDemand); err != nil {
		t.Fatal(err)
	}

	if got := dev.Writes() - preWrites; got != 1 {
		t.Fatalf("wrapped flush issued %d write submissions, want 1", got)
	}
	if dev.VecWrites() != 1 {
		t.Fatalf("vec writes = %d, want 1", dev.VecWrites())
	}
	st := l.StatsSnapshot()
	if st.FlushWrites != 1 {
		t.Fatalf("FlushWrites = %d, want 1", st.FlushWrites)
	}
	if st.FlushSyncs != 1 {
		t.Fatalf("FlushSyncs = %d, want 1", st.FlushSyncs)
	}
	// The record must be intact on the device across the wrap.
	recs, err := ScanAll(dev, LSN(startAt))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, payload) {
		t.Fatalf("wrapped record corrupted: %d records", len(recs))
	}
}

// The sequential fallback (device without WriteVec) still issues two
// writes for a wrapped region — the before shape the vectored path is
// measured against.
type plainDev struct{ d *MemDevice }

func (p *plainDev) WriteAt(b []byte, off int64) (int, error) { return p.d.WriteAt(b, off) }
func (p *plainDev) ReadAt(b []byte, off int64) (int, error)  { return p.d.ReadAt(b, off) }
func (p *plainDev) Sync() error                              { return p.d.Sync() }
func (p *plainDev) Size() (int64, error)                     { return p.d.Size() }
func (p *plainDev) Close() error                             { return p.d.Close() }

func TestFlushWrapAroundSequentialFallback(t *testing.T) {
	mem := NewMem()
	dev := &plainDev{d: mem}
	l := newStoppedLog(t, dev, Options{Kind: Serial, SyncOnFlush: true})
	ringSize := uint64(l.opts.BufferSize)
	startAt := ringSize - 64
	l.next = startAt
	l.fr.filled.Store(startAt)
	l.flushed.Store(startAt)
	mem.WriteAt(make([]byte, startAt), 0)
	preWrites := mem.Writes()

	payload := bytes.Repeat([]byte("s"), 200)
	rec := make([]byte, EncodedSize(len(payload)))
	Encode(&Record{Type: RecUpdate, TxnID: 7, Payload: payload}, rec)
	if _, err := l.insertSerial(rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.flushOnce(causeDemand); err != nil {
		t.Fatal(err)
	}
	if got := mem.Writes() - preWrites; got != 2 {
		t.Fatalf("sequential wrapped flush issued %d writes, want 2", got)
	}
	if st := l.StatsSnapshot(); st.FlushWrites != 2 {
		t.Fatalf("FlushWrites = %d, want 2", st.FlushWrites)
	}
}

// Regression: a dead flusher must not leave ring-full inserters hung.
// Before the fix, flusher() failed commit waiters but never broadcast
// l.space, so goroutines parked in allocateLocked waited forever on a
// frontier that could no longer advance.
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

// Satellite: ReadAt must clamp each chunk to the logical end of log
// instead of zero-padding to the full in-segment length.
func TestSegmentedReadAtClampsToLogicalEnd(t *testing.T) {
	d := newSegDev(t, 100)
	if _, err := d.WriteAt(bytes.Repeat([]byte("a"), 50), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 80)
	n, err := d.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
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
	whole := make([]byte, 400)
	n, err = d.ReadAt(whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("whole read = %d, want 300 (logical size)", n)
	}
	if whole[40] != 'a' || whole[60] != 0 || whole[150] != 0 || whole[295] != 'z' {
		t.Fatal("sparse-region content mismatch")
	}
}

// Satellite: a failed os.Remove during TruncateBefore must not leave
// the closed *os.File in the live segment map, where later operations
// would hit "file already closed".
func TestTruncateBeforeRemoveFailureDropsSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := OpenSegmented(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt(bytes.Repeat([]byte("y"), 300), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sabotage segment 0's path: replace the file with a non-empty
	// directory so os.Remove fails after the file handle is closed.
	seg0 := d.segPath(0)
	if err := os.Remove(seg0); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seg0, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TruncateBefore(250); err == nil {
		t.Fatal("TruncateBefore succeeded despite unremovable segment")
	}
	// The failed segment must be gone from the live map: a retry (and
	// any sync) must not see its closed file. Segments the loop had
	// not reached yet may legitimately remain for the retry.
	d.lock()
	_, retained := d.segs[0]
	d.unlock()
	if retained {
		t.Fatal("closed segment 0 still in live map after failed truncation")
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync after failed truncation: %v", err)
	}
	if _, err := d.TruncateBefore(250); err != nil {
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

// A vector spanning several segments becomes one submission per
// touched segment file.
func TestSegmentedWriteVecPerSegmentSubmissions(t *testing.T) {
	d := newSegDev(t, 100)
	// Two contiguous buffers covering [30, 280): segments 0, 1, 2.
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
	if st.Writes != 3 {
		t.Fatalf("write submissions = %d, want 3 (one per touched segment)", st.Writes)
	}
	if d.DirtySegments() != 3 {
		t.Fatalf("dirty segments = %d, want 3", d.DirtySegments())
	}
	if sz, _ := d.Size(); sz != 280 {
		t.Fatalf("size = %d, want 280", sz)
	}
	back := make([]byte, 250)
	if n, err := d.ReadAt(back, 30); n != 250 || err != nil {
		t.Fatalf("read back %d, %v", n, err)
	}
	want := append(append([]byte{}, b1...), b2...)
	if !bytes.Equal(back, want) {
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
}

// Sync must fsync only segments written since the last sync.
func TestSegmentedDirtyOnlySync(t *testing.T) {
	d := newSegDev(t, 100)
	if _, err := d.WriteAt(bytes.Repeat([]byte("d"), 1000), 0); err != nil { // 10 segments
		t.Fatal(err)
	}
	if d.DirtySegments() != 10 {
		t.Fatalf("dirty = %d, want 10", d.DirtySegments())
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	st := d.DeviceStats()
	if st.SegSyncs != 10 {
		t.Fatalf("first sync fsynced %d segments, want 10", st.SegSyncs)
	}
	if d.DirtySegments() != 0 {
		t.Fatalf("dirty after sync = %d", d.DirtySegments())
	}
	// Touch one segment: the next sync must fsync exactly one file and
	// skip the other nine.
	if _, err := d.WriteAt([]byte("!"), 505); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	st = d.DeviceStats()
	if st.SegSyncs != 11 {
		t.Fatalf("dirty-only sync fsynced %d total, want 11", st.SegSyncs)
	}
	if st.SegSyncSkips != 9 {
		t.Fatalf("seg sync skips = %d, want 9", st.SegSyncSkips)
	}
	// A clean sync fsyncs nothing.
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if st = d.DeviceStats(); st.SegSyncs != 11 {
		t.Fatalf("clean sync fsynced segments: %d", st.SegSyncs)
	}
}

// End-to-end: a Log over a SegmentedDevice takes the vectored path,
// and per-flush submissions stay at one vectored call per flush.
func TestLogOverSegmentedUsesVectoredPath(t *testing.T) {
	d := newSegDev(t, 4096)
	l, err := New(d, Options{Kind: Consolidated, BufferSize: 1 << 20, SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: bytes.Repeat([]byte("v"), 100)})
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
	st := l.StatsSnapshot()
	if st.VecWrites == 0 {
		t.Fatal("segmented device never saw a vectored submission")
	}
	if st.FlushWrites != st.VecWrites {
		t.Fatalf("flusher submissions %d != device WriteVec calls %d (flusher bypassed the vectored path)",
			st.FlushWrites, st.VecWrites)
	}
	if st.SegSyncs == 0 {
		t.Fatal("no segment fsyncs recorded")
	}
	recs, err := ScanAll(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("scanned %d records, want 300", len(recs))
	}
}

// Satellite: -race stress over the full new path — Consolidated
// inserts through vectored flushes into a SegmentedDevice while
// TruncateBefore rotates old segments out underneath.
func TestSegmentedVectoredTruncateStress(t *testing.T) {
	d := newSegDev(t, 8192)
	l, err := New(d, Options{Kind: Consolidated, BufferSize: 1 << 20, SyncOnFlush: true, FlushInterval: 100 * time.Microsecond})
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
			horizon := int64(l.FlushedLSN()) - 2*8192
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
	recs, err := ScanAll(d, from)
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
	t.Logf("flushes=%d vec_writes=%d seg_syncs=%d seg_sync_skips=%d truncated_to=%d scanned=%d",
		st.Flushes, st.VecWrites, st.SegSyncs, st.SegSyncSkips, base, len(recs))
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
