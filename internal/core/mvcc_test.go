package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

func mvccConfig() Config {
	cfg := Scalable()
	cfg.MVCC = true
	return cfg
}

func mvccEngine(t testing.TB) *Engine {
	t.Helper()
	return memEngine(t, mvccConfig())
}

// A snapshot pinned before an update keeps serving the old value after
// the writer commits; a fresh snapshot sees the new one.
func TestSnapshotSeesPreWriteState(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("old")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("new")) }); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "old" {
		t.Fatalf("snapshot read %q, want old", v)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := e.Begin(Intent{ReadOnly: true})
	defer s2.Commit()
	if v, err := s2.Read(tbl, 1); err != nil || string(v) != "new" {
		t.Fatalf("fresh snapshot read %q, %v; want new", v, err)
	}
}

// Rows inserted after the snapshot are invisible to point reads and
// scans; rows deleted after it remain visible.
func TestSnapshotInsertDeleteVisibility(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	for i := uint64(1); i <= 4; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Begin(Intent{ReadOnly: true})
	defer s.Commit()
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 5, []byte{5}) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Delete(tbl, 2) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(tbl, 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-snapshot insert visible: %v", err)
	}
	if v, err := s.Read(tbl, 2); err != nil || string(v) != "\x02" {
		t.Fatalf("post-snapshot delete hid row: %q, %v", v, err)
	}
	var keys []uint64
	if err := s.Scan(tbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(keys) != len(want) {
		t.Fatalf("scan keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys %v, want %v", keys, want)
		}
	}
}

// An uncommitted writer's changes are invisible, and stay invisible
// forever if it aborts.
func TestSnapshotPendingAndAbortedInvisible(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("keep")) }); err != nil {
		t.Fatal(err)
	}
	w := e.Begin()
	if err := w.Update(tbl, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(tbl, 2, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "keep" {
		t.Fatalf("pending update leaked: %q, %v", v, err)
	}
	if _, err := s.Read(tbl, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pending insert leaked: %v", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "keep" {
		t.Fatalf("after abort: %q, %v", v, err)
	}
	s.Commit()
	s2 := e.Begin(Intent{ReadOnly: true})
	defer s2.Commit()
	if v, err := s2.Read(tbl, 1); err != nil || string(v) != "keep" {
		t.Fatalf("aborted update visible to later snapshot: %q, %v", v, err)
	}
	if _, err := s2.Read(tbl, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert visible to later snapshot: %v", err)
	}
}

// The snapshot path takes zero lock-manager traffic: lock acquires
// stay flat while snapshot reads climb, and the bypass counter records
// what was skipped.
func TestSnapshotZeroLockTraffic(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	for i := uint64(0); i < 100; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	before := e.StatsSnapshot()
	s := e.Begin(Intent{ReadOnly: true})
	for i := uint64(0); i < 100; i++ {
		if _, err := s.Read(tbl, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	after := e.StatsSnapshot()
	if after.Lock.Acquires != before.Lock.Acquires {
		t.Fatalf("snapshot path acquired locks: %d -> %d", before.Lock.Acquires, after.Lock.Acquires)
	}
	if got := after.Mvcc.SnapshotReads - before.Mvcc.SnapshotReads; got != 101 {
		t.Fatalf("snapshot reads %d, want 101", got)
	}
	if got := after.Lock.Bypasses - before.Lock.Bypasses; got != 100*2+1 {
		t.Fatalf("lock bypasses %d, want %d", got, 100*2+1)
	}
	if after.Mvcc.SnapshotBegins != before.Mvcc.SnapshotBegins+1 {
		t.Fatalf("snapshot begins %d -> %d", before.Mvcc.SnapshotBegins, after.Mvcc.SnapshotBegins)
	}
}

// Versions whose commit LSN falls at or below the watermark are pruned:
// repeatedly updating one row with no snapshot active must not grow the
// chain without bound.
func TestVersionChainGC(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	st := e.StatsSnapshot().Mvcc
	// Install-time pruning keeps the chain near length 1: the previous
	// version is dead the moment the floor passes its commit.
	if st.LiveNodes > 4 {
		t.Fatalf("live nodes %d after 200 updates with no snapshots", st.LiveNodes)
	}
	if st.GCNodes == 0 {
		t.Fatal("no nodes reclaimed")
	}

	// A pinned snapshot holds the watermark: versions accumulate while
	// it lives and are swept when it releases.
	s := e.Begin(Intent{ReadOnly: true})
	for i := 0; i < 50; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("w")) }); err != nil {
			t.Fatal(err)
		}
	}
	held := e.StatsSnapshot().Mvcc.LiveNodes
	if held < 2 {
		t.Fatalf("pinned snapshot did not retain versions: %d live", held)
	}
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "v" {
		t.Fatalf("pinned snapshot read %q, %v; want v", v, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	st = e.StatsSnapshot().Mvcc
	if st.LiveNodes >= held {
		t.Fatalf("release did not sweep: %d -> %d live", held, st.LiveNodes)
	}
	if st.GCSweeps == 0 {
		t.Fatal("no sweep ran")
	}
}

// Chains are volatile: a snapshot opened after crash recovery serves
// the recovered state.
func TestSnapshotAfterRecovery(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(mvccConfig(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("durable")) }); err != nil {
		t.Fatal(err)
	}
	crash(e)
	e2, err := OpenWith(mvccConfig(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, err := e2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	s := e2.Begin(Intent{ReadOnly: true})
	defer s.Commit()
	if v, err := s.Read(tbl2, 1); err != nil || string(v) != "durable" {
		t.Fatalf("post-recovery snapshot read %q, %v", v, err)
	}
}

// Regression for the ErrNotFound collapse: an index probe that fails
// with a buffer-pool IO error must surface that error, not pretend the
// key is missing. Frames is kept tiny and the key count large, and
// coldEngine leaves neither the index's last leaf (which the write-path
// probes below reach through the rightmost door, with no descent) nor
// the pages under it resident, so every probe has to fault pages back
// in from the failing device.
func TestReadInfraErrorNotMaskedAsNotFound(t *testing.T) {
	const keys = 20000
	e, tbl, store := coldEngine(t, keys)
	ioErr := errors.New("injected device failure")
	store.FailReads(ioErr)
	defer store.FailReads(nil)

	// The locked range scan first, while some index leaves are still
	// resident and the heap pages under them are not: a row the index
	// names and the pool cannot read is an error, not a shorter result.
	var scanInfra bool
	for lo := uint64(0); lo < keys; lo += 250 {
		tx := e.Begin()
		n := 0
		err := tx.Scan(tbl, lo, lo+99, func(uint64, []byte) bool { n++; return true })
		tx.Abort()
		if err == nil && n != 100 {
			t.Fatalf("Scan [%d, %d] under IO failure: %d rows and no error", lo, lo+99, n)
		}
		if errors.Is(err, ioErr) {
			scanInfra = true
		}
	}
	if !scanInfra {
		t.Fatal("no scan reached the failing device (test not exercising the path)")
	}

	var sawInfra bool
	for i := uint64(0); i < keys; i += 500 {
		t1 := e.Begin()
		_, err := t1.Read(tbl, i)
		t1.Abort()
		if err == nil {
			continue // served from a resident page
		}
		if errors.Is(err, ErrNotFound) {
			t.Fatalf("IO error collapsed into ErrNotFound: %v", err)
		}
		if errors.Is(err, ioErr) {
			sawInfra = true
		}
	}
	if !sawInfra {
		t.Fatal("no read reached the failing device (test not exercising the path)")
	}

	// Same contract on the write-path probes.
	t2 := e.Begin()
	if err := t2.Update(tbl, keys-1, []byte("x")); err == nil || errors.Is(err, ErrNotFound) {
		t2.Abort()
		t.Fatalf("Update under IO failure: %v", err)
	}
	t2.Abort()
	t3 := e.Begin()
	if err := t3.Insert(tbl, keys+1, []byte("x")); err == nil || errors.Is(err, ErrExists) || errors.Is(err, ErrNotFound) {
		t3.Abort()
		t.Fatalf("Insert under IO failure: %v", err)
	}
	t3.Abort()
}

// True misses still read as ErrNotFound (the distinguishing must not
// overcorrect).
func TestReadTrueMissStillNotFound(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	if _, err := tx.Read(tbl, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: %v", err)
	}
	if _, err := tx.ReadForUpdate(tbl, 98); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss for update: %v", err)
	}
	if err := tx.Update(tbl, 97, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update miss: %v", err)
	}
	if err := tx.Delete(tbl, 96); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete miss: %v", err)
	}
}

// A chunked snapshot scan merges walked rows, chain-overridden rows,
// and chain-only rows (deleted after the snapshot) correctly across
// chunk boundaries, and hides rows created after the snapshot.
func TestSnapshotScanChunkBoundaries(t *testing.T) {
	old := snapScanChunk
	snapScanChunk = 4
	defer func() { snapScanChunk = old }()
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	const rows = 20
	for i := uint64(0); i < rows; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Begin(Intent{ReadOnly: true})
	defer s.Commit()
	// Post-snapshot churn: delete keys at and around chunk edges
	// (including the first and last), rewrite some, insert new ones.
	for _, k := range []uint64{0, 3, 4, 7, 8, 19} {
		if err := e.Exec(func(tx *Txn) error { return tx.Delete(tbl, k) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{1, 5, 18} {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, k, []byte{0xff}) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{2, 25, 30} {
		if err := e.Exec(func(tx *Txn) error {
			if k == 2 {
				return nil // already present
			}
			return tx.Insert(tbl, k, []byte{0xee})
		}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	if err := s.Scan(tbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
		if len(v) != 1 || v[0] != byte(k) {
			t.Fatalf("key %d read %v, want original %v", k, v, []byte{byte(k)})
		}
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != rows {
		t.Fatalf("scan saw %d rows %v, want all %d originals", len(keys), keys, rows)
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("scan out of order at %d: %v", i, keys)
		}
	}
	// Early termination still works mid-merge.
	n := 0
	if err := s.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early-stopped scan visited %d rows", n)
	}
}

// Regression for the scan omission gap: a delete whose index-entry
// removal lands between the chain resolution and the B+-tree walk must
// still appear in a snapshot scan. Writers continuously delete and
// re-insert rows while pinned snapshots scan; every scan must see the
// full row set. Run with -race (make race).
func TestStressSnapshotScanConcurrentDeleteNoOmission(t *testing.T) {
	old := snapScanChunk
	snapScanChunk = 8 // force chunk boundaries under churn
	defer func() { snapScanChunk = old }()
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	const rows = 64
	for i := uint64(0); i < rows; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(part uint64) {
			defer wg.Done()
			// Each writer owns half the keys; delete + re-insert commit
			// as ONE transaction, so at every commit point the full row
			// set exists — but the index entry is missing while the
			// transaction is in flight, which is exactly the window the
			// scan must cover from the version chain.
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i*2 + part) % rows
				if err := e.Exec(func(tx *Txn) error {
					if err := tx.Delete(tbl, k); err != nil {
						return err
					}
					return tx.Insert(tbl, k, []byte("v"))
				}); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("rewrite: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Begin(Intent{ReadOnly: true})
		n := 0
		prev := int64(-1)
		if err := s.Scan(tbl, 0, rows-1, func(k uint64, v []byte) bool {
			if int64(k) <= prev {
				t.Errorf("scan out of order: %d after %d", k, prev)
			}
			prev = int64(k)
			if string(v) != "v" {
				t.Errorf("key %d read %q", k, v)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Deletes and re-inserts each commit whole rows; at any snapshot
		// every key exists (either the original or a committed
		// re-insert), so an incomplete scan is an omission bug.
		if n != rows {
			t.Fatalf("scan saw %d rows, want %d", n, rows)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Regression for the abort pin leak: finishing a snapshot transaction
// must release its pin even when the engine has already closed —
// Commit and Abort on a snapshot handle never fail with ErrClosed.
func TestSnapshotPinReleasedAfterClose(t *testing.T) {
	e := memEngine(t, mvccConfig())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	s1 := e.Begin(Intent{ReadOnly: true})
	s2 := e.Begin(Intent{ReadOnly: true})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatalf("snapshot commit after close: %v", err)
	}
	if err := s2.Abort(); err != nil {
		t.Fatalf("snapshot abort after close: %v", err)
	}
	if n := e.StatsSnapshot().Mvcc.ActiveSnapshots; n != 0 {
		t.Fatalf("%d snapshots still pinned after finish", n)
	}
	// Double-finish still reports handle reuse.
	if err := s1.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
}

// An abort with no snapshot pinned leaves no version garbage: the
// stamped nodes are pruned on the spot.
func TestAbortedVersionsPrunedEagerly(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("keep")) }); err != nil {
		t.Fatal(err)
	}
	w := e.Begin()
	if err := w.Update(tbl, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(tbl, 2, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Mvcc.LiveNodes; n != 0 {
		t.Fatalf("%d live nodes after abort with no snapshots", n)
	}
	tx := e.Begin()
	defer tx.Abort()
	if val, err := tx.Read(tbl, 1); err != nil || string(val) != "keep" {
		t.Fatalf("post-abort read %q, %v", val, err)
	}
	if _, err := tx.Read(tbl, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert survived: %v", err)
	}
}

// SI anomaly stress: a reader mid-scan must see none of a concurrently
// committing writer's updates — every scanned row carries the value the
// snapshot pinned, never a newer one. Run with -race (make race) and
// -tags hydradebug (make stress).
func TestStressSnapshotScanNoTearing(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	const rows = 64
	for i := uint64(0); i < rows; i++ {
		if err := e.Exec(func(tx *Txn) error {
			return tx.Insert(tbl, i, []byte(fmt.Sprintf("g%08d", 0)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var gen atomic.Uint64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := gen.Add(1)
				if err := e.Exec(func(tx *Txn) error {
					// One transaction rewrites every row to generation g.
					for i := uint64(0); i < rows; i++ {
						if err := tx.Update(tbl, i, []byte(fmt.Sprintf("g%08d", g))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Begin(Intent{ReadOnly: true})
		seen := map[string]int{}
		n := 0
		if err := s.Scan(tbl, 0, rows-1, func(k uint64, v []byte) bool {
			seen[string(v)]++
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Updates never remove rows, so the scan must be complete, and —
		// the SI guarantee — entirely from one committed generation: the
		// writers rewrite all rows in one transaction, so a mix of
		// generations would be a torn (non-snapshot) read.
		if n != rows {
			t.Fatalf("scan saw %d rows, want %d", n, rows)
		}
		if len(seen) != 1 {
			t.Fatalf("scan mixed generations: %v", seen)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// SI anomaly stress: point reads under concurrent single-row writers
// never observe pending or aborted values. Writers alternate commit
// and abort; aborted generations are odd, committed even — a snapshot
// must only ever read even generations.
func TestStressSnapshotNeverSeesAborted(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("g0000000000")) }); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := uint64(1); ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			w := e.Begin()
			val := fmt.Sprintf("g%010d", g)
			if err := w.Update(tbl, 1, []byte(val)); err != nil {
				w.Abort()
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("update: %v", err)
				return
			}
			if g%2 == 1 {
				if err := w.Abort(); err != nil {
					t.Errorf("abort: %v", err)
					return
				}
			} else if err := w.Commit(); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Begin(Intent{ReadOnly: true})
		v, err := s.Read(tbl, 1)
		if err != nil {
			t.Fatal(err)
		}
		var g uint64
		if _, err := fmt.Sscanf(string(v), "g%d", &g); err != nil {
			t.Fatalf("unparseable row %q: %v", v, err)
		}
		if g%2 == 1 {
			t.Fatalf("snapshot read aborted generation %d", g)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// A long-running snapshot must not stall writers: writer throughput
// with a snapshot pinned stays within the same order of magnitude as
// without (readers never block writers).
func TestStressLongSnapshotDoesNotStallWriters(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	for i := uint64(0); i < 16; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	write := func(d time.Duration) int {
		n := 0
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if err := e.Exec(func(tx *Txn) error {
				return tx.Update(tbl, uint64(n)%16, []byte("w"))
			}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	base := write(300 * time.Millisecond)
	s := e.Begin(Intent{ReadOnly: true})
	pinned := write(300 * time.Millisecond)
	// The snapshot still reads its pinned state after all that traffic.
	if v, rerr := s.Read(tbl, 0); rerr != nil || string(v) == "" {
		t.Fatalf("pinned snapshot read %q, %v", v, rerr)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if pinned < base/10 {
		t.Fatalf("writers stalled by pinned snapshot: %d vs %d commits", pinned, base)
	}
}
