package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/latch"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// countingStore counts the page writes and syncs that reach a store.
type countingStore struct {
	buffer.PageStore
	writes, syncs atomic.Int64
}

func (s *countingStore) WritePage(p *page.Page) error {
	s.writes.Add(1)
	return s.PageStore.WritePage(p)
}

func (s *countingStore) Sync() error {
	s.syncs.Add(1)
	return s.PageStore.Sync()
}

// openCounted opens an engine over cfg.Dir's files with the store
// counted and the log device at hand, as Open would lay them out.
func openCounted(t *testing.T, cfg Config) (*Engine, *countingStore, *wal.FileDevice) {
	t.Helper()
	dev, err := openLog(cfg.Dir, cfg.LogSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := buffer.OpenFileStore(filepath.Join(cfg.Dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{PageStore: fs}
	e, err := OpenWith(cfg, store, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e, store, dev
}

// createUnforced creates a table and fails the test if the create wrote
// or synced a page: its one durable effect is its log record.
func createUnforced(t *testing.T, e *Engine, store *countingStore, name string) *Table {
	t.Helper()
	w, s := store.writes.Load(), store.syncs.Load()
	tbl, err := e.CreateTable(name)
	if err != nil {
		t.Fatal(err)
	}
	if dw, ds := store.writes.Load()-w, store.syncs.Load()-s; dw != 0 || ds != 0 {
		t.Fatalf("CreateTable(%s) wrote %d pages and synced the store %d times, want 0 and 0", name, dw, ds)
	}
	return tbl
}

func ddlValue(table string, k int) []byte {
	return fmt.Appendf(nil, "%s-%d-%s", table, k, bytes.Repeat([]byte("v"), 100))
}

// insertRows commits rows [from, to) of tbl, a batch per transaction.
func insertRows(t *testing.T, e *Engine, tbl *Table, from, to int) {
	t.Helper()
	for ; from < to; from += 50 {
		if err := e.Exec(func(tx *Txn) error {
			for k := from; k < min(from+50, to); k++ {
				if err := tx.Insert(tbl, uint64(k), ddlValue(tbl.Name, k)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// readRows fails unless table name holds exactly rows [0, rows) as
// insertRows wrote them.
func readRows(t *testing.T, e *Engine, name string, rows int) {
	t.Helper()
	tbl, err := e.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := e.Exec(func(tx *Txn) error {
		n = 0
		return tx.Scan(tbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
			if !bytes.Equal(v, ddlValue(name, int(k))) {
				t.Errorf("%s key %d = %q", name, k, v)
			}
			n++
			return true
		})
	}, Intent{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("%s holds %d rows, want %d", name, n, rows)
	}
}

// requireOwnPages fails unless every table's heap chain is its own: no
// page is on two chains, or on a chain and an index root, and each is
// below the store's allocation frontier, so that no later allocation
// hands it out again.
func requireOwnPages(t *testing.T, e *Engine) {
	t.Helper()
	reserved, err := e.store.NumPages()
	if err != nil {
		t.Fatal(err)
	}
	owner := map[page.ID]string{}
	for _, tbl := range e.Tables() {
		owner[tbl.Index.RootID()] = tbl.Name + "'s index root"
	}
	for _, tbl := range e.Tables() {
		for id := tbl.Heap.FirstPage(); id != page.InvalidID; {
			if prev, ok := owner[id]; ok {
				t.Fatalf("page %d is on %s's heap chain and is %s", id, tbl.Name, prev)
			}
			if uint64(id) >= reserved {
				t.Fatalf("page %d of %s's heap chain is past the %d pages the store reserved", id, tbl.Name, reserved)
			}
			owner[id] = tbl.Name + "'s heap"
			f, err := e.pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Latch.Acquire(latch.Shared)
			id = f.Page.Next()
			f.Latch.Release(latch.Shared)
			e.pool.Unpin(f, false)
		}
	}
}

// Two tables are created and loaded, with or without checkpoints
// between the two creates, and the engine crashes without writing its
// pool: page 0 and the heads of the tables exist only as OpCreate
// records (a fuzzy checkpoint writes page 0 alone; over segments it
// flushes the first table). No
// create writes or syncs a page. Restart redoes both creates, each page
// gated by its own LSN, and every committed row reads back.
func TestCreatedTablesSurviveCrash(t *testing.T) {
	// a's rows fit its head page; b's take a few, so its chain extends.
	const aRows, bRows = 50, 300
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			eachLogShape(t, Scalable(), func(t *testing.T, cfg Config) {
				e, store, dev := openCounted(t, cfg)
				insertRows(t, e, createUnforced(t, e, store, "a"), 0, aRows)
				// The second checkpoint finds page 0 clean (the first wrote
				// it) and a's head dirty: only the head's own recLSN keeps
				// a's create in the redo window.
				for i := 0; ckpt && i < 2; i++ {
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				insertRows(t, e, createUnforced(t, e, store, "b"), 0, bRows)
				crash(e) // the pool stays unwritten
				if err := errors.Join(dev.Close(), e.store.Close()); err != nil {
					t.Fatal(err)
				}

				r, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				readRows(t, r, "a", aRows)
				readRows(t, r, "b", bRows)
				requireOwnPages(t, r)
				if err := r.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// A create whose record did not reach the log before the crash (cut off
// it here) leaves no table behind: page 0 and the new head were never
// written, so restart has nothing that names it. The name can be
// created again, and its head page id, handed out anew, belongs to one
// table only.
func TestCreateCutFromLogLeavesNoTable(t *testing.T) {
	const rows = 100
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			eachLogShape(t, Scalable(), func(t *testing.T, cfg Config) {
				e, store, dev := openCounted(t, cfg)
				insertRows(t, e, createUnforced(t, e, store, "a"), 0, rows)
				if ckpt {
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				cut := e.log.NextLSN()
				createUnforced(t, e, store, "b")
				crash(e)
				if err := dev.SetEnd(int64(cut)); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(dev.Close(), e.store.Close()); err != nil {
					t.Fatal(err)
				}

				r, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if _, err := r.Table("b"); !errors.Is(err, ErrNoTable) {
					t.Fatalf("the table whose record was cut survived the restart: %v", err)
				}
				b, err := r.CreateTable("b")
				if err != nil {
					t.Fatal(err)
				}
				insertRows(t, r, b, 0, rows)
				readRows(t, r, "a", rows)
				readRows(t, r, "b", rows)
				requireOwnPages(t, r)
				if err := r.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// lostLogProbe does what a store opened over a lost log goes on to do:
// 20 autocommit inserts commit, the engine crashes and reopens. It
// returns how many of those rows are missing.
func lostLogProbe(t *testing.T, e *Engine, reopen func() (*Engine, error)) (missing int) {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := 100; k < 120; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, uint64(k), []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	crash(e)
	r, err := reopen()
	if err != nil {
		t.Fatalf("opened over a lost log, 20 rows committed, and the reopen after a crash fails: %v", err)
	}
	defer r.Close()
	tbl, _ = r.Table("t")
	for k := 100; k < 120; k++ {
		if err := r.Exec(func(tx *Txn) error { _, err := tx.Read(tbl, uint64(k)); return err }); err != nil {
			missing++
		}
	}
	return missing
}

// A store that names a record its log lacks is refused, and the refusal
// writes nothing: reopened over a fresh log, a checkpointed store (its
// master names the checkpoint), and one with a table and no checkpoint
// (page 0's LSN names the create). Opened instead, the store loses
// every row committed after the reopen at the next crash: the new log's
// LSNs restart below the pages' LSNs, and redo skips its records.
func TestOpenRefusesLostLog(t *testing.T) {
	const rows = 20
	for _, ckpt := range []bool{true, false} {
		t.Run(fmt.Sprintf("MemStore/checkpoint=%v", ckpt), func(t *testing.T) {
			store := &countingStore{PageStore: buffer.NewMemStore()}
			e0, err := OpenWith(Scalable(), store, wal.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e0.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			insertRows(t, e0, tbl, 0, rows)
			if ckpt {
				if err := e0.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e0.Close(); err != nil {
				t.Fatal(err)
			}
			w, s := store.writes.Load(), store.syncs.Load()
			dev := wal.NewMem()
			e, err := OpenWith(Scalable(), store, dev)
			if err == nil {
				missing := lostLogProbe(t, e, func() (*Engine, error) { return OpenWith(Scalable(), store, dev) })
				t.Fatalf("opened over a lost log; after a crash %d of %d rows committed since are missing", missing, rows)
			}
			if !errors.Is(err, ErrLogMismatch) {
				t.Fatalf("open over a lost log = %v, want %v", err, ErrLogMismatch)
			}
			if dw, ds := store.writes.Load()-w, store.syncs.Load()-s; dw != 0 || ds != 0 {
				t.Fatalf("the refused open wrote %d pages and synced %d times", dw, ds)
			}
		})
	}
	t.Run("deleted wal.log", func(t *testing.T) {
		cfg := Scalable()
		cfg.Dir = t.TempDir()
		e0, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e0.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		insertRows(t, e0, tbl, 0, rows)
		if err := e0.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := e0.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(cfg.Dir, "wal.log")); err != nil {
			t.Fatal(err)
		}
		pagesDB := filepath.Join(cfg.Dir, "pages.db")
		before, err := os.ReadFile(pagesDB)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(cfg)
		if err == nil {
			missing := lostLogProbe(t, e, func() (*Engine, error) {
				if err := errors.Join(e.logDev.Close(), e.store.Close()); err != nil {
					return nil, err
				}
				return Open(cfg)
			})
			t.Fatalf("opened over a deleted wal.log; after a crash %d of %d rows committed since are missing", missing, rows)
		}
		if !errors.Is(err, ErrLogMismatch) {
			t.Fatalf("open over a deleted wal.log = %v, want %v", err, ErrLogMismatch)
		}
		if after, err := os.ReadFile(pagesDB); err != nil || !bytes.Equal(before, after) {
			t.Fatalf("the refused open changed pages.db (%v)", err)
		}
	})
}

// Tables are created while others take inserts and checkpoints run back
// to back, over a pool small enough to evict: page 0 and the heads are
// written whenever a checkpoint or an eviction gets to them. After a
// crash, restart must find every table whose CreateTable returned, and
// every row whose commit did. make stress runs it 100 times under the
// latch-order checks.
func TestCreateTableDuringCheckpoints(t *testing.T) {
	const creators, tables, rows = 2, 6, 40
	cfg := Scalable()
	cfg.Frames, cfg.BufferShards = 24, 2 // the tables need more pages
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(cfg, store, dev)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < tables; i++ {
				tbl, err := e.CreateTable(fmt.Sprintf("t%d.%d", c, i))
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < rows; k += 20 {
					if err := e.Exec(func(tx *Txn) error {
						for j := k; j < k+20; j++ {
							if err := tx.Insert(tbl, uint64(j), ddlValue(tbl.Name, j)); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-ckptDone
	if t.Failed() {
		return
	}
	if e.Pool().StatsSnapshot().Evictions == 0 {
		t.Fatal("no page was evicted: the pool holds every table, nothing to test")
	}
	crash(e)

	r, err := OpenWith(cfg, store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Tables()); n != creators*tables {
		t.Fatalf("%d tables after restart, want %d", n, creators*tables)
	}
	for c := 0; c < creators; c++ {
		for i := 0; i < tables; i++ {
			readRows(t, r, fmt.Sprintf("t%d.%d", c, i), rows)
		}
	}
	requireOwnPages(t, r)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Creators race to create one name while readers look tables up and
// read the index statistics, and checkpoints run back to back. Page 0's
// X latch orders the creates: in each round exactly one succeeds, the
// rest get ErrTableExists having allocated nothing, so the store grows
// by the winner's heap head and index root alone. A table is published
// with its index, so no lookup, Tables or StatsSnapshot finds it
// without one.
func TestRacingCreatesOfOneName(t *testing.T) {
	const rounds, creators, readers = 20, 6, 2
	e, err := Open(Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	old, err := e.CreateTable("old")
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, old, 0, 100)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1 + readers)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, tbl := range e.Tables() {
					if tbl.Index == nil {
						t.Errorf("Tables lists %s without its index", tbl.Name)
						return
					}
				}
				if tbl, err := e.Table(fmt.Sprintf("new%d", i%rounds)); err == nil && tbl.Index == nil {
					t.Errorf("Table(%s) has no index", tbl.Name)
					return
				}
				e.StatsSnapshot() // sums every published table's index
				if err := e.Exec(func(tx *Txn) error {
					_, err := tx.Read(old, uint64(i%100))
					return err
				}, Intent{ReadOnly: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for round := 0; round < rounds && !t.Failed(); round++ {
		name := fmt.Sprintf("new%d", round)
		before, _ := e.store.NumPages()
		var won atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < creators; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch tbl, err := e.CreateTable(name); {
				case err == nil:
					won.Add(1)
					if tbl.Index == nil {
						t.Errorf("CreateTable(%s) returned no index", name)
					}
				case !errors.Is(err, ErrTableExists):
					t.Errorf("CreateTable(%s): %v, want ErrTableExists", name, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := won.Load(); n != 1 {
			t.Errorf("round %d: %d creates of %s succeeded, want 1", round, n, name)
		}
		if after, _ := e.store.NumPages(); after != before+2 {
			t.Errorf("round %d: the store grew by %d pages, want 2 (a heap head and an index root)", round, after-before)
		}
	}
	close(stop)
	bg.Wait()
	if n := len(e.Tables()); n != rounds+1 {
		t.Fatalf("%d tables, want %d", n, rounds+1)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}
