package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// liveCount returns how many live-registry slots are claimed.
func liveCount(e *Engine) int {
	n := 0
	for s := e.live.head.Load(); s != nil; s = s.next {
		if s.owner.Load() != 0 {
			n++
		}
	}
	return n
}

// backdate moves tx's begin stamp d into the past, in its clock and in
// its slot, as if it had begun d earlier.
func backdate(tx *Txn, d time.Duration) {
	tx.clock.Start(tx.clock.StartTime() - int64(d))
	tx.slot.born.Store(tx.clock.StartTime())
}

// A live-registry slot fills one cache line, so transactions on
// neighbouring slots never share one.
func TestLiveSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(liveSlot{}); n != 64 {
		t.Fatalf("liveSlot is %d bytes, want 64", n)
	}
}

// pinnedAt is what TestPinUnderRaces's oracle knows of a pinned
// transaction: the snapshot its Begin returned with, and its begin
// stamp.
type pinnedAt struct {
	snap uint64
	born int64
}

// TestPinUnderRaces races the pin protocol (Engine.pin): snapshot
// readers and snapshot-isolation writers pin and finish, 2PL writers
// commit versions (each leave advances the floor), and the snapshot
// transactions' leaves and the writers' sampled tick raise the
// oldest-pin mirror. A MaxSnapshotAge of 200 µs (2 ms under the race
// detector, which slows every transaction about tenfold) lets some pins
// go overdue and others not, and each pinner yields at random between
// its store and its re-check (testHookPinned). Two oracles. On every prune,
// with its horizon, the test walks the slots and fails if the horizon
// passes a pin its transaction holds — one whose Begin returned
// (pinned) and that has not finished — unless that pin is overdue at
// the hook. A pin that is still re-checking itself may lie below a
// horizon; it then retries. And a snapshot reader reads one key twice:
// the two reads agree, or one of them fails with ErrSnapshotExpired.
func TestPinUnderRaces(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = 200 * time.Microsecond
	if raceEnabled {
		cfg.MaxSnapshotAge *= 10
	}
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	const rows = 16
	for k := uint64(0); k < rows; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}

	// Grow the registry first: a raise's walk over many slots is a
	// window a pin can land in behind it.
	var grown []*Txn
	for range 128 {
		grown = append(grown, e.Begin(Intent{ReadOnly: true}))
	}
	for _, tx := range grown {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	var pinned sync.Map // txn id -> pinnedAt
	var checked, overdue, failed atomic.Int64
	var first atomic.Pointer[string]
	fail := func(format string, args ...any) {
		failed.Add(1)
		msg := fmt.Sprintf(format, args...)
		first.CompareAndSwap(nil, &msg)
	}
	var horizon atomic.Uint64 // the highest horizon a prune has reached
	testHookPrune = func(w uint64) {
		for h := horizon.Load(); h < w && !horizon.CompareAndSwap(h, w); h = horizon.Load() {
		}
		runtime.Gosched() // let pins register between the horizon and the walk
		bornAfter := e.cutoff()
		for s := e.live.head.Load(); s != nil; s = s.next {
			id := s.owner.Load()
			p := s.pin.Load()
			v, ok := pinned.Load(id)
			if !ok || v.(pinnedAt).snap != p {
				continue
			}
			if v.(pinnedAt).born < bornAfter {
				overdue.Add(1)
				continue
			}
			checked.Add(1)
			if w > p {
				fail("a prune's horizon %d passed transaction %d's pin %d", w, id, p)
			}
		}
	}
	testHookPinned = func() {
		if rand.IntN(2) == 0 {
			runtime.Gosched()
		}
	}
	defer func() { testHookPrune, testHookPinned = nil, nil }()

	// begin pins a snapshot and registers it with the oracle; end
	// unregisters it before the transaction finishes.
	begin := func(in Intent) *Txn {
		tx := e.Begin(in)
		pinned.Store(tx.id, pinnedAt{snap: tx.snap, born: tx.clock.StartTime()})
		if h := horizon.Load(); h > tx.snap && tx.clock.StartTime() >= e.cutoff() {
			fail("a prune's horizon %d passed transaction %d's pin %d before its Begin returned", h, tx.id, tx.snap)
		}
		return tx
	}
	end := func(tx *Txn, commit bool) error {
		pinned.Delete(tx.id)
		if commit {
			return tx.Commit()
		}
		return tx.Abort()
	}
	expiredOK := func(err error) bool {
		return err == nil || errors.Is(err, ErrSnapshotExpired) || errors.Is(err, ErrWriteConflict)
	}
	var seq atomic.Uint64 // every write stores a value no other write stores
	value := func(tag string) []byte { return strconv.AppendUint([]byte(tag), seq.Add(1), 10) }

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	run := func(body func(src *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rand.New(rand.NewPCG(rand.Uint64(), 1))
			for time.Now().Before(deadline) {
				if err := body(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 3 { // snapshot readers
		run(func(src *rand.Rand) error {
			tx := begin(Intent{ReadOnly: true})
			k := src.Uint64N(rows)
			v1, err1 := tx.Read(tbl, k)
			runtime.Gosched()
			v2, err2 := tx.Read(tbl, k)
			if err := end(tx, true); err != nil {
				return err
			}
			for _, err := range []error{err1, err2} {
				if err != nil && !errors.Is(err, ErrSnapshotExpired) {
					return fmt.Errorf("snapshot read: %w", err)
				}
			}
			if err1 == nil && err2 == nil && !bytes.Equal(v1, v2) {
				return fmt.Errorf("snapshot %d read key %d as %q, then as %q", tx.snap, k, v1, v2)
			}
			return nil
		})
	}
	run(func(src *rand.Rand) error { // snapshot-isolation writer
		tx := begin(Intent{Optimistic: true})
		if err := tx.Update(tbl, src.Uint64N(rows), value("si")); !expiredOK(err) {
			end(tx, false)
			return fmt.Errorf("SI update: %w", err)
		}
		if err := end(tx, true); err != nil {
			if !expiredOK(err) {
				return fmt.Errorf("SI commit: %w", err)
			}
			return tx.Abort()
		}
		return nil
	})
	for range 2 { // 2PL writers
		run(func(src *rand.Rand) error {
			return e.Exec(func(tx *Txn) error { return tx.Update(tbl, src.Uint64N(rows), value("2pl")) })
		})
	}
	wg.Wait()
	if msg := first.Load(); msg != nil {
		t.Fatalf("%d failures over %d pin checks; the first: %s", failed.Load(), checked.Load(), *msg)
	}
	if checked.Load() == 0 {
		t.Fatalf("no prune ever found a pin that was not overdue to check (%d overdue)", overdue.Load())
	}
	st := e.StatsSnapshot().Mvcc
	if st.SnapshotsExpired == 0 || st.GCNodes == 0 {
		t.Fatalf("no snapshot expired or the GC never ran: %+v", st)
	}
	t.Logf("%d pin checks, %d overdue pins skipped, %d expiries, %d nodes pruned",
		checked.Load(), overdue.Load(), st.SnapshotsExpired, st.GCNodes)
}

// A snapshot transaction that claims a recycled slot with a begin stamp
// older than the age is expired by that stamp alone: once a raise passes
// its pin and the GC prunes the version it would read, its read fails
// with ErrSnapshotExpired instead of returning the newer value. Nothing
// another transaction did to the slot before it claimed it counts. A
// snapshot that is not overdue holds the watermark again.
func TestExpiryNeverLandsOnARecycledSlot(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Hour
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	put := func(v string) {
		t.Helper()
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	q := e.Begin(Intent{ReadOnly: true})
	slot := q.slot
	if err := q.Commit(); err != nil {
		t.Fatal(err)
	}
	p := e.Begin(Intent{ReadOnly: true})
	if p.slot != slot {
		t.Fatal("the second transaction claimed another slot")
	}
	backdate(p, 2*time.Hour)
	put("v1")
	e.raise()
	if w := e.mvcc.watermark(); w <= p.snap {
		t.Fatalf("the raise left the watermark %d at the overdue pin %d", w, p.snap)
	}
	if v, err := p.Read(tbl, 1); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("overdue snapshot read %q, %v; want ErrSnapshotExpired", v, err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	r := e.Begin(Intent{ReadOnly: true})
	put("v2")
	e.raise()
	if w := e.mvcc.watermark(); w > r.snap {
		t.Fatalf("watermark %d passed the fresh pin %d", w, r.snap)
	}
	if v, err := r.Read(tbl, 1); err != nil || string(v) != "v1" {
		t.Fatalf("fresh snapshot read %q, %v; want v1", v, err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Mvcc.SnapshotsExpired; n != 1 {
		t.Fatalf("SnapshotsExpired = %d, want 1", n)
	}
}

// expireMidRead returns a hook that makes tx overdue and raises, so the
// GC prunes the versions tx's snapshot needs; it runs once.
func expireMidRead(e *Engine, tx *Txn) func() {
	return func() {
		testHookSnapshotRead = nil
		backdate(tx, 2*time.Hour)
		e.raise()
	}
}

// A snapshot that expires between a read's start and its chain resolve
// fails the read: the read checks its age after it has read.
func TestExpiryBetweenReadAndResolve(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Hour
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("v1")) }); err != nil {
		t.Fatal(err)
	}
	testHookSnapshotRead = expireMidRead(e, s)
	defer func() { testHookSnapshotRead = nil }()
	if v, err := s.Read(tbl, 1); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("read %q, %v; want ErrSnapshotExpired", v, err)
	}
	if st := e.StatsSnapshot().Mvcc; st.GCNodes == 0 {
		t.Fatalf("the GC never pruned the snapshot's version: %+v", st)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A snapshot that expires between two chunks of a scan fails the scan
// before the second chunk emits: every row emitted is the snapshot's.
func TestExpiryBetweenScanChunks(t *testing.T) {
	old := snapScanChunk
	snapScanChunk = 2
	defer func() { snapScanChunk = old }()
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Hour
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	const rows = 6
	for k := uint64(0); k < rows; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte("v0")) }); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Begin(Intent{ReadOnly: true})
	for k := uint64(0); k < rows; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, k, []byte("v1")) }); err != nil {
			t.Fatal(err)
		}
	}
	expire := expireMidRead(e, s)
	emitted := 0
	err := s.Scan(tbl, 0, rows-1, func(k uint64, v []byte) bool {
		if string(v) != "v0" {
			t.Errorf("scan emitted key %d = %q, want v0", k, v)
		}
		if emitted++; emitted == snapScanChunk {
			expire() // between the first chunk's emit and the second's walk
		}
		return true
	})
	if !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("scan emitted %d rows, then %v; want ErrSnapshotExpired", emitted, err)
	}
	if emitted != snapScanChunk {
		t.Fatalf("scan emitted %d rows, want the first chunk's %d", emitted, snapScanChunk)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A snapshot-isolation writer whose snapshot expires between its commit's
// start and its validation, while the GC prunes a concurrent writer's
// version of its key, fails with ErrSnapshotExpired: it never commits
// over the update its validation could no longer see.
func TestExpiryBetweenValidationAndApply(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Hour
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{Optimistic: true})
	if err := s.Update(tbl, 1, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("theirs")) }); err != nil {
		t.Fatal(err)
	}
	testHookSnapshotRead = expireMidRead(e, s)
	defer func() { testHookSnapshotRead = nil }()
	if err := s.Commit(); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("commit: %v; want ErrSnapshotExpired", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot().Mvcc; st.LiveNodes != 0 {
		t.Fatalf("the GC left %d nodes; the concurrent writer's version was not pruned", st.LiveNodes)
	}
	if err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err == nil && string(v) != "theirs" {
			err = fmt.Errorf("key 1 = %q, want theirs", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
