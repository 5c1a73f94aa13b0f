package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/heap"
	"hydra/internal/rng"
	"hydra/internal/wal"
)

func TestCkptCodecRoundTrip(t *testing.T) {
	dpt := map[uint64]uint64{5: 50, 7: 70}
	got, err := decodeCkpt(encodeCkpt(dpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sizes: %+v", got)
	}
	for pg, rec := range dpt {
		if got[pg] != rec {
			t.Fatalf("DPT[%d] = %d", pg, got[pg])
		}
	}
}

func TestCkptCodecQuick(t *testing.T) {
	f := func(dptKeys []uint64) bool {
		dpt := map[uint64]uint64{}
		for i, k := range dptKeys {
			dpt[k] = uint64(i * 13)
		}
		got, err := decodeCkpt(encodeCkpt(dpt))
		return err == nil && len(got) == len(dpt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCkptDecodeErrors(t *testing.T) {
	if _, err := decodeCkpt(nil); err == nil {
		t.Error("nil payload accepted")
	}
	enc := encodeCkpt(map[uint64]uint64{3: 4})
	for _, cut := range []int{2, 6, len(enc) - 3} {
		if _, err := decodeCkpt(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// parentCkptPayload encodes an end-checkpoint payload the way the
// format before this one did: the active-transaction table (id ->
// last LSN), then the DPT.
func parentCkptPayload(att map[uint64]wal.LSN, dpt map[uint64]uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(att)))
	for id, lsn := range att {
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, uint64(lsn))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dpt)))
	for pg, rec := range dpt {
		b = binary.LittleEndian.AppendUint64(b, pg)
		b = binary.LittleEndian.AppendUint64(b, rec)
	}
	return b
}

// An end record of the older format decodes when it lists no
// transaction (the two layouts then agree) and is refused when it lists
// one: its master names the begin record, not where analysis must
// start.
func TestCkptDecodeParentFormat(t *testing.T) {
	dpt := map[uint64]uint64{3: 4}
	got, err := decodeCkpt(parentCkptPayload(nil, dpt))
	if err != nil || len(got) != 1 || got[3] != 4 {
		t.Fatalf("empty-table parent record: %v, %v", got, err)
	}
	if _, err := decodeCkpt(parentCkptPayload(map[uint64]wal.LSN{9: 100}, dpt)); !errors.Is(err, errListsTransactions) {
		t.Fatalf("parent record listing a transaction: err = %v, want errListsTransactions", err)
	}
}

// Restart refuses a log whose checkpoint-end record lists an active
// transaction, with an error that names the format change; it never
// recovers it from the wrong starting point.
func TestRestartRefusesParentFormatCheckpoint(t *testing.T) {
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	tx := e.Begin()
	if err := tx.Insert(tbl, 1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	begin, err := e.log.Append(&wal.Record{Type: wal.RecCheckpoint, PrevLSN: wal.NilLSN})
	if err != nil {
		t.Fatal(err)
	}
	payload := parentCkptPayload(map[uint64]wal.LSN{tx.id: tx.lastLSN}, e.pool.DirtyPageTable())
	end, err := e.log.Append(&wal.Record{Type: wal.RecCheckpointEnd, PrevLSN: begin, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.WaitFlushed(end); err != nil {
		t.Fatal(err)
	}
	err = e.writeMeta(begin)
	if err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if !errors.Is(err, errListsTransactions) {
		if e2 != nil {
			e2.Close()
		}
		t.Fatalf("restart over a parent-format checkpoint: err = %v, want errListsTransactions", err)
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
	// 1000 pre-checkpoint txns are ~2000 records; the analysis window
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
// still be rolled back at restart — it reaches recovery only because
// the master sits at or below its first record.
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
// retirement must leave restart counting the transaction a winner. No
// record follows the commit, so the commit record alone closes it.
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
	afterCommit := e.log.NextLSN()
	if err := tx.CommitWait(commit); err != nil {
		t.Fatal(err)
	}
	if next := e.log.NextLSN(); next != afterCommit {
		t.Fatalf("commit wait appended %d bytes after the commit record", next-afterCommit)
	}
	crash(e)

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

// The other side of the window: a transaction active when the
// checkpoint began, whose commit record lies between the checkpoint's
// begin and end records. The master sits at or below its first record, so
// restart meets its records and then its commit, and must not take it
// for a loser.
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
	// ckpt-begin, T's commit, then a ckpt-end with the DPT.
	begin, err := e.log.Append(&wal.Record{Type: wal.RecCheckpoint, PrevLSN: wal.NilLSN})
	if err != nil {
		t.Fatal(err)
	}
	start := min(begin, wal.LSN(tx.slot.first.Load())) // what Checkpoint computes
	if _, err := e.log.Append(&wal.Record{Type: wal.RecCommit, TxnID: tx.id, PrevLSN: tx.lastLSN}); err != nil {
		t.Fatal(err)
	}
	end, err := e.log.Append(&wal.Record{Type: wal.RecCheckpointEnd, PrevLSN: begin, Payload: encodeCkpt(e.pool.DirtyPageTable())})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.WaitFlushed(end); err != nil {
		t.Fatal(err)
	}
	err = e.writeMeta(start)
	if err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep := e2.RecoveryReport; rep.Master != start || rep.LosersUndone != 0 || rep.Committed != 1 {
		t.Fatalf("restart report %+v: want master %d, 1 commit, no loser", rep, start)
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

// A page store opened over an empty log — a database created and never
// written, its log lost or started afresh — must not put a data record
// at LSN 0: the buffer pool lowers a page's recLSN to the log's filled
// frontier, 0 on an empty log, which a fuzzy checkpoint's DPT reads as
// "none", so redo would start past the record. Open starts every log
// that opens empty with a checkpoint's begin marker, so the table
// created and the row inserted below survive the crash. A store that
// keeps a master from an earlier checkpoint names a record the new log
// lacks, and is refused (ErrLogMismatch). So is one with a table,
// since creating a table is a logged write (TestOpenRefusesLostLog).
func TestEmptyLogOpenKeepsRedoOnRecordBoundary(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointed=%v", checkpointed), func(t *testing.T) {
			store := buffer.NewMemStore()
			e0, err := OpenWith(Conventional(), store, wal.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			if checkpointed { // the store keeps a master past LSN 0
				if err := e0.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e0.Close(); err != nil {
				t.Fatal(err)
			}

			dev := wal.NewMem()
			e, err := OpenWith(Conventional(), store, dev)
			if checkpointed {
				if !errors.Is(err, ErrLogMismatch) {
					t.Fatalf("open over a log without the store's master = %v, want %v", err, ErrLogMismatch)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("kept")) }); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err != nil { // fuzzy: flushes page 0 alone
				t.Fatal(err)
			}
			crash(e)

			e2, err := OpenWith(Conventional(), store, dev)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			readKey1(t, e2, "kept")
		})
	}
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

// Transactions write their first records while checkpoints run, until
// the log device dies at a random offset: a crash at a random append.
// Restart must undo every loser and keep every acknowledged commit.
// Each transaction writes its own number to every key of its worker, so
// after restart a worker's keys must agree on its last acknowledged
// transaction, or on the one whose Commit failed when its commit record
// reached the disk all the same. A long transaction now and then stays
// open across checkpoints.
func TestCheckpointsRacingFirstRecordsSurviveCrash(t *testing.T) {
	const (
		workers = 4
		keys    = 8
		rounds  = 4
	)
	for round := uint64(0); round < rounds; round++ {
		src := rng.New(round*7919 + 1)
		store, dev := buffer.NewMemStore(), wal.NewMem()
		e, err := OpenWith(Scalable(), store, dev)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Exec(func(tx *Txn) error {
			for k := uint64(0); k < workers*keys; k++ {
				if err := tx.Insert(tbl, k, []byte("0")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		size, _ := dev.Size()
		dev.FailAfter(size+int64(src.IntRange(64<<10, 1<<20)), errors.New("injected crash"))

		// acked[w] is worker w's last acknowledged transaction number;
		// failed[w] the one whose Commit returned an error, or 0.
		var acked, failed [workers]int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, r *rng.Source) {
				defer wg.Done()
				for n := 1; n < 1<<20; n++ {
					tx := e.Begin()
					val := []byte(fmt.Sprint(n))
					var err error
					for k := 0; k < keys && err == nil; k++ {
						err = tx.Update(tbl, uint64(w*keys+k), val)
						if k == 0 && r.Bool(0.05) {
							time.Sleep(time.Millisecond) // straddle a checkpoint or two
						}
					}
					switch {
					case err != nil:
						tx.Abort()
						return
					case r.Bool(0.2):
						if tx.Abort() != nil {
							return
						}
					case tx.Commit() != nil:
						failed[w] = n
						tx.Abort()
						return
					default:
						acked[w] = n
					}
				}
			}(w, src.Split(uint64(w)))
		}
		ckptDone := make(chan struct{})
		go func() {
			defer close(ckptDone)
			for e.Checkpoint() == nil {
			}
		}()
		wg.Wait()
		<-ckptDone
		crash(e)
		dev.FailAfter(0, nil)

		e2, err := OpenWith(Scalable(), store, dev)
		if err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
		if err := e2.Verify(); err != nil {
			t.Fatalf("round %d: verify: %v", round, err)
		}
		tbl2, _ := e2.Table("t")
		for w := 0; w < workers; w++ {
			var got [keys]string
			if err := e2.Exec(func(tx *Txn) error {
				for k := range got {
					v, err := tx.Read(tbl2, uint64(w*keys+k))
					if err != nil {
						return err
					}
					got[k] = string(v)
				}
				return nil
			}); err != nil {
				t.Fatalf("round %d: read worker %d: %v", round, w, err)
			}
			ok := got[0] == fmt.Sprint(acked[w]) || failed[w] != 0 && got[0] == fmt.Sprint(failed[w])
			for _, v := range got {
				ok = ok && v == got[0]
			}
			if !ok {
				t.Errorf("round %d worker %d: keys %q; acknowledged %d, failed commit %d (%+v)",
					round, w, got, acked[w], failed[w], e2.RecoveryReport)
			}
		}
		e2.Close()
	}
}

// A checkpoint whose begin marker and dirty-page table come after a
// writer appended its record for a clean page, but before the writer's
// unpin marked the page dirty, must still list the page: its begin
// marker lies above the record, and redo starts there unless the DPT
// says otherwise. The writer notes the page's recLSN under its X latch
// before it appends, so the DPT has it. The checkpoint runs inside the
// heap's log callback here, which fixes that order.
func TestCheckpointBetweenAppendAndUnpinKeepsTheWrite(t *testing.T) {
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("old")) }); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil { // the row's page is clean
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.lockWrite(tbl, 1); err != nil {
		t.Fatal(err)
	}
	packed, err := tbl.Index.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	op := OpRecord{Op: OpUpdate, Table: tbl.ID, Key: 1, RID: heap.Unpack(packed), After: tx.arenaRowRecord(1, []byte("new"))}
	if err := tbl.Heap.UpdateFn(op.RID, op.After, func(before []byte) (uint64, error) {
		op.Before = before
		lsn, err := tx.logOp(&op)
		if err != nil {
			return 0, err
		}
		ckpt := make(chan error) // this goroutine holds the page's X latch
		go func() { ckpt <- e.Checkpoint() }()
		return uint64(lsn), <-ckpt
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, _ := e2.Table("t")
	if err := e2.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl2, 1)
		if err == nil && string(v) != "new" {
			err = fmt.Errorf("key 1 = %q after restart, want the committed %q", v, "new")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
