package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

func TestCkptCodecRoundTrip(t *testing.T) {
	s := ckptSnapshot{
		ATT: map[uint64]wal.LSN{1: 100, 2: 200, 99: wal.NilLSN},
		DPT: map[uint64]uint64{5: 50, 7: 70},
	}
	got, err := decodeCkpt(encodeCkpt(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ATT) != 3 || len(got.DPT) != 2 {
		t.Fatalf("sizes: %+v", got)
	}
	for id, lsn := range s.ATT {
		if got.ATT[id] != lsn {
			t.Fatalf("ATT[%d] = %d, want %d", id, got.ATT[id], lsn)
		}
	}
	for pg, rec := range s.DPT {
		if got.DPT[pg] != rec {
			t.Fatalf("DPT[%d] = %d", pg, got.DPT[pg])
		}
	}
}

func TestCkptCodecQuick(t *testing.T) {
	f := func(attKeys, dptKeys []uint64) bool {
		s := ckptSnapshot{ATT: map[uint64]wal.LSN{}, DPT: map[uint64]uint64{}}
		for i, k := range attKeys {
			s.ATT[k] = wal.LSN(i * 7)
		}
		for i, k := range dptKeys {
			s.DPT[k] = uint64(i * 13)
		}
		got, err := decodeCkpt(encodeCkpt(s))
		return err == nil && len(got.ATT) == len(s.ATT) && len(got.DPT) == len(s.DPT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCkptDecodeErrors(t *testing.T) {
	if _, err := decodeCkpt(nil); err == nil {
		t.Error("nil payload accepted")
	}
	enc := encodeCkpt(ckptSnapshot{ATT: map[uint64]wal.LSN{1: 2}, DPT: map[uint64]uint64{3: 4}})
	for _, cut := range []int{2, 6, len(enc) - 3} {
		if _, err := decodeCkpt(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// A checkpoint must bound analysis: restart after a checkpoint scans
// only the tail of the log.
func TestCheckpointBoundsAnalysis(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	for i := 0; i < 1000; i++ {
		i := i
		if err := e.Exec(func(tx *Txn) error {
			return tx.Insert(tbl, uint64(i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A little post-checkpoint work.
	for i := 1000; i < 1010; i++ {
		i := i
		e.Exec(func(tx *Txn) error { return tx.Insert(tbl, uint64(i), []byte("v")) })
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rep := e2.RecoveryReport
	if rep.Master == wal.NilLSN {
		t.Fatal("restart ignored the master record")
	}
	// 1000 pre-checkpoint txns are ~4000 records; the analysis window
	// must be far smaller.
	if rep.Scanned > 200 {
		t.Fatalf("analysis scanned %d records despite checkpoint", rep.Scanned)
	}
	tbl2, _ := e2.Table("t")
	e2.Exec(func(tx *Txn) error {
		n := 0
		tx.Scan(tbl2, 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
		if n != 1010 {
			t.Fatalf("rows after checkpointed recovery = %d", n)
		}
		return nil
	})
}

// A transaction active at the checkpoint that never writes again must
// still be rolled back at restart — it reaches recovery only through
// the checkpoint's ATT.
func TestLoserOnlyInCheckpointATT(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) })

	loser := e.Begin()
	if err := loser.Update(tbl, 1, []byte("loser")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Force the dirtied page out so the loser's effect is on disk and
	// restart must undo it physically.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.RecoveryReport.LosersUndone != 1 {
		t.Fatalf("losers = %d (%+v)", e2.RecoveryReport.LosersUndone, e2.RecoveryReport)
	}
	tbl2, _ := e2.Table("t")
	e2.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl2, 1)
		if err != nil || string(v) != "base" {
			t.Fatalf("row = %q, %v; want base", v, err)
		}
		return nil
	})
}

// readKey1 asserts that key 1 of table t reads want.
func readKey1(t *testing.T, e *Engine, want string) {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil || string(v) != want {
			t.Fatalf("key 1 = %q, %v; want %q", v, err, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint taken between a transaction's commit record and its
// retirement must not list it: a restart from that checkpoint never sees
// the commit record and, with the end record lost to the crash, would
// roll the acknowledged commit back.
func TestCheckpointKeepsAcknowledgedCommit(t *testing.T) {
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("old")) }); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.Update(tbl, 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	commit, err := tx.CommitAsync()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	endRecord := e.log.NextLSN()
	if err := tx.CommitWait(commit); err != nil {
		t.Fatal(err)
	}
	crash(e)
	if err := dev.SetEnd(int64(endRecord)); err != nil { // the end record never reached the disk
		t.Fatal(err)
	}

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep := e2.RecoveryReport; rep.LosersUndone != 0 {
		t.Fatalf("restart rolled back %d transactions (%+v), want none", rep.LosersUndone, rep)
	}
	readKey1(t, e2, "new")
}

// The other side of the window: a transaction the ATT snapshot lists
// because it ran before its commit, whose commit record lies between the
// checkpoint's begin and end records. Restart meets the commit before
// the listing and must not take the listing for a loser.
func TestCheckpointWindowCommitIsNoLoser(t *testing.T) {
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("old")) }); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.Update(tbl, 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// ckpt-begin, T's commit, then a ckpt-end whose ATT lists T.
	begin, err := e.log.Append(&wal.Record{Type: wal.RecCheckpoint, PrevLSN: wal.NilLSN})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.log.Append(&wal.Record{Type: wal.RecCommit, TxnID: tx.id, PrevLSN: tx.lastLSN}); err != nil {
		t.Fatal(err)
	}
	snap := ckptSnapshot{ATT: map[uint64]wal.LSN{tx.id: tx.lastLSN}, DPT: e.pool.DirtyPageTable()}
	end, err := e.log.Append(&wal.Record{Type: wal.RecCheckpointEnd, PrevLSN: begin, Payload: encodeCkpt(snap)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.WaitFlushed(end); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	err = e.writeMeta(begin)
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep := e2.RecoveryReport; rep.Master != begin || rep.LosersUndone != 0 || rep.Committed != 1 {
		t.Fatalf("restart report %+v: want master %d, 1 commit, no loser", rep, begin)
	}
	readKey1(t, e2, "new")
}

// Pre-checkpoint updates on pages that were never flushed must be
// redone even though analysis starts at the checkpoint: the DPT's
// recLSN pulls the redo scan back.
func TestDPTPullsRedoBelowCheckpoint(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	// Committed work that stays only in the buffer pool.
	for i := 0; i < 50; i++ {
		i := i
		if err := e.Exec(func(tx *Txn) error {
			return tx.Insert(tbl, uint64(i), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil { // fuzzy: flushes nothing
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.RecoveryReport.Redone == 0 {
		t.Fatalf("nothing redone; DPT redo window broken (%+v)", e2.RecoveryReport)
	}
	tbl2, _ := e2.Table("t")
	e2.Exec(func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			v, err := tx.Read(tbl2, uint64(i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("key %d = %q, %v", i, v, err)
			}
		}
		return nil
	})
}

// Checkpoints must be safe under concurrent write traffic (fuzzy).
func TestCheckpointDuringTraffic(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(w)*1_000_000 + i
				if err := e.Exec(func(tx *Txn) error {
					return tx.Insert(tbl, key, []byte("x"))
				}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	// On a narrow machine the five checkpoints (empty DPT, microseconds
	// each) can all finish before the scheduler has run a single writer
	// to commit, and the crash below then legitimately recovers zero
	// rows. Gate on the first commit so the survival assertion is
	// meaningful.
	for e.StatsSnapshot().Commits == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 5; i++ {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	crash(e)

	e2, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// All committed rows present (count equals committed counter from
	// recovery's point of view: just ensure scan works and no losers
	// beyond the possibly in-flight ones).
	tbl2, _ := e2.Table("t")
	n := 0
	e2.Exec(func(tx *Txn) error {
		return tx.Scan(tbl2, 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
	})
	if n == 0 {
		t.Fatal("no rows survived checkpointed crash")
	}
}
