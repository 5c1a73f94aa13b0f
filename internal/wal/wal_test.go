package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hydra/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{
		Type:     RecUpdate,
		TxnID:    42,
		PrevLSN:  1000,
		PageID:   7,
		UndoNext: NilLSN,
		Payload:  []byte("hello, log"),
	}
	buf := make([]byte, EncodedSize(len(r.Payload)))
	n, err := Encode(&r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("Encode wrote %d, want %d", n, len(buf))
	}
	got, length, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if length != n {
		t.Fatalf("Decode length %d, want %d", length, n)
	}
	if got.Type != r.Type || got.TxnID != r.TxnID || got.PrevLSN != r.PrevLSN ||
		got.PageID != r.PageID || got.UndoNext != r.UndoNext || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, r)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(typ uint8, txn uint64, prev uint64, pid uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		r := Record{Type: RecType(typ), TxnID: txn, PrevLSN: LSN(prev), PageID: pid, Payload: payload}
		buf := make([]byte, EncodedSize(len(payload)))
		if _, err := Encode(&r, buf); err != nil {
			return false
		}
		got, _, err := Decode(buf)
		return err == nil && got.TxnID == txn && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	r := Record{Type: RecCommit, TxnID: 1, PrevLSN: NilLSN, Payload: []byte("xyz")}
	buf := make([]byte, EncodedSize(3))
	Encode(&r, buf)

	if _, _, err := Decode(buf[:10]); !errors.Is(err, ErrTorn) {
		t.Errorf("short buffer: err = %v, want ErrTorn", err)
	}
	if _, _, err := Decode(buf[:len(buf)-1]); !errors.Is(err, ErrTorn) {
		t.Errorf("truncated record: err = %v, want ErrTorn", err)
	}
	bad := append([]byte(nil), buf...)
	bad[20] ^= 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: err = %v, want ErrCorrupt", err)
	}
	// Implausible length.
	huge := append([]byte(nil), buf...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := Decode(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible length: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodePayloadTooBig(t *testing.T) {
	r := Record{Type: RecUpdate, Payload: make([]byte, MaxPayload+1)}
	if _, err := Encode(&r, make([]byte, EncodedSize(MaxPayload+1))); !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
}

func newTestLog(t *testing.T, kind BufferKind, dev Device) *Log {
	t.Helper()
	l, err := New(dev, Options{Kind: kind, BufferSize: 1 << 20, SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// scanAll decodes every record in [start, end of log), each payload
// copied out of the scanner's window.
func scanAll(dev Device, start LSN) ([]Record, error) {
	sc, err := NewScanner(dev, start)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for sc.Next() {
		r := sc.Record()
		r.Payload = bytes.Clone(r.Payload)
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func TestAppendFlushScanAllKinds(t *testing.T) {
	for _, kind := range BufferKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			dev := NewMem()
			l := newTestLog(t, kind, dev)
			var lsns []LSN
			for i := 0; i < 100; i++ {
				lsn, err := l.Append(&Record{
					Type: RecUpdate, TxnID: uint64(i), PrevLSN: NilLSN,
					PageID: uint64(i * 3), Payload: []byte(fmt.Sprintf("payload-%d", i)),
				})
				if err != nil {
					t.Fatal(err)
				}
				lsns = append(lsns, lsn)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := scanAll(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 100 {
				t.Fatalf("scanned %d records, want 100", len(recs))
			}
			for i, r := range recs {
				if r.LSN != lsns[i] {
					t.Fatalf("record %d LSN %d, want %d", i, r.LSN, lsns[i])
				}
				if want := fmt.Sprintf("payload-%d", i); string(r.Payload) != want {
					t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
				}
			}
		})
	}
}

// The central correctness property for all insert algorithms: under
// heavy concurrency, every record appears in the log exactly once, at
// its reported LSN, with no gaps or overlaps.
func TestConcurrentInsertExactlyOnce(t *testing.T) {
	for _, kind := range BufferKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dev := NewMem()
			l := newTestLog(t, kind, dev)
			const workers = 16
			const perWorker = 500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(w))
					for i := 0; i < perWorker; i++ {
						payload := make([]byte, src.IntRange(1, 512))
						src.Bytes(payload)
						// Tag with worker and sequence for verification.
						if _, err := l.Append(&Record{
							Type:  RecUpdate,
							TxnID: uint64(w)<<32 | uint64(i),
							// PrevLSN/PageID carry extra entropy
							PrevLSN: NilLSN,
							PageID:  uint64(len(payload)),
							Payload: payload,
						}); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := scanAll(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != workers*perWorker {
				t.Fatalf("scanned %d records, want %d", len(recs), workers*perWorker)
			}
			// Exactly-once and contiguity.
			seen := map[uint64]bool{}
			var pos LSN
			for _, r := range recs {
				if r.LSN != pos {
					t.Fatalf("gap or overlap: record at %d, expected %d", r.LSN, pos)
				}
				pos += LSN(EncodedSize(len(r.Payload)))
				if seen[r.TxnID] {
					t.Fatalf("duplicate record for txn tag %d", r.TxnID)
				}
				seen[r.TxnID] = true
				if uint64(len(r.Payload)) != r.PageID {
					t.Fatalf("payload length corrupted for tag %d", r.TxnID)
				}
			}
		})
	}
}

// Ring wraparound: a tiny buffer forces many wraps and space waits.
func TestRingWraparound(t *testing.T) {
	for _, kind := range BufferKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dev := NewMem()
			l, err := New(dev, Options{Kind: kind, BufferSize: EncodedSize(MaxPayload), SyncOnFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("w"), 10000)
			const total = 400 // ~4MB through a 1MB+ ring
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < total/4; i++ {
						if _, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(w), Payload: payload}); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := scanAll(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != total {
				t.Fatalf("scanned %d, want %d", len(recs), total)
			}
			for _, r := range recs {
				if !bytes.Equal(r.Payload, payload) {
					t.Fatal("payload corrupted across wraparound")
				}
			}
		})
	}
}

func TestWaitFlushedGroupCommit(t *testing.T) {
	dev := NewMem()
	// A slow device forces concurrent committers to pile up behind
	// one IO, which is exactly when group commit must batch them.
	dev.SyncFn = func() { time.Sleep(2 * time.Millisecond) }
	l := newTestLog(t, Consolidated, dev)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append(&Record{Type: RecCommit, TxnID: uint64(i)})
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := l.WaitFlushed(lsn); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if l.FlushedLSN() <= lsn {
				t.Errorf("WaitFlushed returned before durability: flushed=%d lsn=%d", l.FlushedLSN(), lsn)
			}
		}(i)
	}
	wg.Wait()
	// Group commit must have batched: far fewer syncs than commits.
	if s := dev.DeviceStats().Syncs; s >= n {
		t.Errorf("no batching: %d syncs for %d commits", s, n)
	}
	l.Close()
}

func TestTornTailScan(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Serial, dev)
	var last LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: []byte("0123456789")})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	l.Close()
	// Cut mid-way through the last record.
	dev.SetEnd(int64(last) + 5)
	recs, err := scanAll(dev, 0)
	if err != nil {
		t.Fatalf("torn tail produced error: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("scanned %d records after torn tail, want 9", len(recs))
	}
}

func TestScanFromMiddle(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Serial, dev)
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsn, _ := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i)})
		lsns = append(lsns, lsn)
	}
	l.Close()
	recs, err := scanAll(dev, lsns[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].TxnID != 5 {
		t.Fatalf("mid-scan got %d records starting at txn %d", len(recs), recs[0].TxnID)
	}
}

func TestClosedLogRejectsInserts(t *testing.T) {
	l := newTestLog(t, Serial, NewMem())
	l.Close()
	if _, err := l.Append(&Record{Type: RecBegin}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestInsertSizeValidation(t *testing.T) {
	l := newTestLog(t, Serial, NewMem())
	defer l.Close()
	if _, err := l.Insert(nil); err == nil {
		t.Error("empty insert accepted")
	}
	if _, err := l.Insert(make([]byte, 1<<20)); err == nil {
		t.Error("oversized insert accepted")
	}
}

func TestFlusherErrorPoisonsLog(t *testing.T) {
	dev := NewMem()
	bang := errors.New("disk on fire")
	dev.FailAfter(100, bang)
	l, err := New(dev, Options{Kind: Serial, BufferSize: 1 << 20, SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 200)
	lsn, err := l.Append(&Record{Type: RecUpdate, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitFlushed(lsn); !errors.Is(err, bang) {
		t.Fatalf("WaitFlushed err = %v, want wrapped 'disk on fire'", err)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	dev, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(dev, Options{Kind: Consolidated, BufferSize: 1 << 20, SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := l.Append(&Record{Type: RecUpdate, TxnID: uint64(i), Payload: []byte("file-backed")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and scan.
	dev2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	recs, err := scanAll(dev2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("scanned %d, want 50", len(recs))
	}
	// A new log over the same device must resume at the end.
	l2, err := New(dev2, Options{Kind: Serial, BufferSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if lsn, _ := l2.Append(&Record{Type: RecBegin, TxnID: 99}); lsn == 0 {
		t.Fatal("resumed log restarted LSNs at 0")
	}
}

func TestLogResumeAppendsAfterExisting(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Serial, dev)
	l.Append(&Record{Type: RecUpdate, TxnID: 1, Payload: []byte("first")})
	l.Close()

	l2 := newTestLog(t, Decoupled, dev)
	l2.Append(&Record{Type: RecUpdate, TxnID: 2, Payload: []byte("second")})
	l2.Close()

	recs, err := scanAll(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].TxnID != 1 || recs[1].TxnID != 2 {
		t.Fatalf("resume produced %d records: %+v", len(recs), recs)
	}
}

func TestStatsCounting(t *testing.T) {
	dev := NewMem()
	l := newTestLog(t, Consolidated, dev)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Append(&Record{Type: RecUpdate, TxnID: uint64(w), Payload: []byte("p")})
			}
		}(w)
	}
	wg.Wait()
	st := l.StatsSnapshot()
	l.Close()
	if st.Inserts != workers*perWorker {
		t.Fatalf("inserts = %d, want %d", st.Inserts, workers*perWorker)
	}
	// Leaders + joiners must account for every insert.
	if st.MutexAcquires+st.GroupInserts != st.Inserts {
		t.Fatalf("mutex acquires %d + group joins %d != inserts %d",
			st.MutexAcquires, st.GroupInserts, st.Inserts)
	}
}

// Deterministic consolidation-array mechanics: members joining an
// open group get correct displacements; close freezes the size;
// publish releases waiters; the last finish recycles the slot.
func TestConsArrayGroupMechanics(t *testing.T) {
	ca := newConsArray(1)
	s, off, leader := ca.join(100, 1<<20)
	if !leader || off != 0 {
		t.Fatalf("first joiner: leader=%v off=%d", leader, off)
	}
	s2, off2, leader2 := ca.join(50, 1<<20)
	if leader2 || s2 != s || off2 != 100 {
		t.Fatalf("second joiner: leader=%v off=%d", leader2, off2)
	}
	s3, off3, leader3 := ca.join(25, 1<<20)
	if leader3 || off3 != 150 {
		t.Fatalf("third joiner: leader=%v off=%d", leader3, off3)
	}
	_ = s3
	if size := ca.close(s); size != 175 {
		t.Fatalf("group size = %d, want 175", size)
	}
	// After close, a new arrival must not join this group; with a
	// single slot it spins, so verify via the packed word instead.
	if st := caStatus(s.word.Load()); st != caClosed {
		t.Fatalf("slot status = %d, want closed", st)
	}
	s.ticket = 7
	ca.publish(s, 4096)
	if got, ok := ca.waitBase(s); !ok || got != 4096 {
		t.Fatalf("published base = %d (ok=%v), want 4096", got, ok)
	}
	for _, n := range []uint64{100, 50} {
		if _, last := ca.finish(s, 175, n); last {
			t.Fatal("a member that did not close the group got its ticket")
		}
	}
	if st := caStatus(s.word.Load()); st != caClosed {
		t.Fatal("slot recycled before all members finished")
	}
	if ticket, last := ca.finish(s, 175, 25); !last || ticket != 7 {
		t.Fatalf("closing member got ticket %d (last=%v), want 7", ticket, last)
	}
	if st := caStatus(s.word.Load()); st != caFree {
		t.Fatal("slot not recycled after last member finished")
	}
	// Recycled slot accepts a fresh group.
	_, off4, leader4 := ca.join(10, 1<<20)
	if !leader4 || off4 != 0 {
		t.Fatal("recycled slot did not accept a new leader")
	}
}

// A member whose request would blow the group cap must overflow to
// another slot rather than join.
func TestConsArrayGroupCap(t *testing.T) {
	ca := newConsArray(2)
	s1, _, leader := ca.join(100, 120)
	if !leader {
		t.Fatal("expected leadership of empty array")
	}
	s2, off, leader2 := ca.join(50, 120) // 100+50 > 120: must go elsewhere
	if s2 == s1 {
		t.Fatal("joiner exceeded group cap")
	}
	if !leader2 || off != 0 {
		t.Fatalf("overflow joiner should lead a new group: leader=%v off=%d", leader2, off)
	}
}

// Tickets complete out of order: a hole holds the frontier, and the
// completion that closes it carries the frontier over every mark
// behind it.
func TestFrontierMerging(t *testing.T) {
	f := newFrontier(0)
	if f.Filled() != 0 {
		t.Fatal("fresh frontier not at 0")
	}
	if f.complete(1, 20) { // [10, 20), out of order
		t.Fatal("a completion behind a hole reported folding another's mark")
	}
	if f.Filled() != 0 {
		t.Fatal("frontier advanced past a hole")
	}
	if !f.complete(0, 10) { // [0, 10)
		t.Fatal("closing the hole did not report folding ticket 1")
	}
	if f.Filled() != 20 {
		t.Fatalf("frontier = %d, want 20 after merge", f.Filled())
	}
	f.complete(4, 40)      // [30, 40)
	if f.complete(2, 25) { // [20, 25): at head, nothing behind it yet
		t.Fatal("an in-order completion reported folding another's mark")
	}
	if f.Filled() != 25 {
		t.Fatalf("frontier = %d, want 25", f.Filled())
	}
	f.complete(3, 30) // [25, 30)
	if f.Filled() != 40 {
		t.Fatalf("frontier = %d, want 40 after chained merge", f.Filled())
	}
	if h := f.head.Load(); h != 5 {
		t.Fatalf("head = %d, want 5", h)
	}
}

func TestFrontierQuickContiguous(t *testing.T) {
	// Property: completing a random permutation of contiguous
	// reservations, one ticket each, always ends with the frontier at
	// the total.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		fr := newFrontier(0)
		n := src.IntRange(1, 50)
		ends := make([]uint64, n)
		for i := range ends {
			ends[i] = uint64(src.IntRange(1, 100))
			if i > 0 {
				ends[i] += ends[i-1]
			}
		}
		for _, i := range src.Perm(n) {
			fr.complete(uint64(i), ends[i])
		}
		return fr.Filled() == ends[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecTypeString(t *testing.T) {
	if RecUpdate.String() != "update" || RecCLR.String() != "clr" {
		t.Fatal("RecType.String mismatch")
	}
	if RecType(200).String() != "rectype(200)" {
		t.Fatal("unknown rectype")
	}
	for _, k := range BufferKinds() {
		if k.String() == "unknown" {
			t.Fatal("named kind stringified as unknown")
		}
	}
	if BufferKind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}
