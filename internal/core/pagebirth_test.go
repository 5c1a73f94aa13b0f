package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// loadFittingThePool commits rows [from, to) of valueLen bytes into
// table t (created when from is 0), in batches, on an engine whose pool
// holds all of them: no heap page is ever evicted, so none is written
// unless a checkpoint does it.
func loadFittingThePool(t *testing.T, e *Engine, from, to, valueLen int) {
	t.Helper()
	if from == 0 {
		if _, err := e.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for ; from < to; from += 100 {
		if err := e.Exec(func(tx *Txn) error {
			for k := from; k < from+100 && k < to; k++ {
				if err := tx.Insert(tbl, uint64(k), rowValueFor(k, valueLen)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Pool().StatsSnapshot(); st.Evictions != 0 {
		t.Fatalf("%d evictions: the load does not fit the pool, nothing to test", st.Evictions)
	}
}

// requireUnwritten fails the test unless pages.db under dir is at least
// missing pages short of what e's store has reserved.
func requireUnwritten(t *testing.T, dir string, e *Engine, missing uint64) {
	t.Helper()
	reserved, err := e.store.NumPages()
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	if onDisk := uint64(st.Size()) / page.Size; onDisk+missing > reserved {
		t.Fatalf("pages.db holds %d of %d reserved pages: the loaded pages were written, nothing to test", onDisk, reserved)
	}
}

func rowValueFor(k, n int) []byte {
	return bytes.Repeat([]byte{byte('a' + k%26)}, n)
}

func checkRows(t *testing.T, e *Engine, rows, valueLen int) {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error {
		for k := 0; k < rows; k++ {
			v, err := tx.Read(tbl, uint64(k))
			if err != nil {
				return fmt.Errorf("row %d: %w", k, err)
			}
			if !bytes.Equal(v, rowValueFor(k, valueLen)) {
				return fmt.Errorf("row %d came back as %d bytes of %q", k, len(v), v[:1])
			}
		}
		return nil
	}, Intent{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	countRows(t, e, rows)
}

// A crash while most of the database has no image in the store: the
// pages were born in the pool, their ids reserved and nothing written,
// so pages.db ends far below the ids the log names. Restart re-reserves
// what the log references, reads the missing pages as zero pages and
// redoes them from their format records on. The checkpoint half way
// makes the two log shapes differ: over wal.log it is fuzzy (every page
// stays unwritten and the dirty-page table pulls redo back to the first
// format record), over segments it flushes the first half.
func TestCrashWithUnwrittenPages(t *testing.T) {
	const rows, valueLen = 2000, 1000 // ~260 pages in a 4096-frame pool
	eachLogShape(t, Scalable(), func(t *testing.T, cfg Config) {
		e := memEngine(t, cfg)
		loadFittingThePool(t, e, 0, rows/2, valueLen)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		loadFittingThePool(t, e, rows/2, rows, valueLen)

		// The crash image: the files as they are while the engine runs.
		crashed := cfg
		crashed.Dir = t.TempDir()
		if err := os.CopyFS(crashed.Dir, os.DirFS(cfg.Dir)); err != nil {
			t.Fatal(err)
		}
		requireUnwritten(t, crashed.Dir, e, rows/2*valueLen/page.Size)

		r, err := Open(crashed)
		if err != nil {
			t.Fatalf("restart with unwritten pages: %v", err)
		}
		defer r.Close()
		if r.RecoveryReport.Redone < rows/2 {
			t.Fatalf("recovery redid %d records for at least %d lost rows: %+v", r.RecoveryReport.Redone, rows/2, r.RecoveryReport)
		}
		checkRows(t, r, rows, valueLen)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		// The recovered engine keeps growing where the old one stopped.
		tbl, _ := r.Table("t")
		if err := r.Exec(func(tx *Txn) error { return tx.Insert(tbl, rows, rowValueFor(rows, valueLen)) }); err != nil {
			t.Fatal(err)
		}
		checkRows(t, r, rows+1, valueLen)
	})
}

// failingWrites is a page store whose writes of every page but the meta
// page fail once armed.
type failingWrites struct {
	buffer.PageStore
	armed atomic.Bool
}

var errInjectedWrite = errors.New("injected page write failure")

func (s *failingWrites) WritePage(p *page.Page) error {
	if s.armed.Load() && p.ID() != metaPageID {
		return errInjectedWrite
	}
	return s.PageStore.WritePage(p)
}

// A Close whose page flush fails still closes the log (its flusher and
// ticker stop, and it refuses appends) and both files, and reports the
// flush error.
func TestFailedFlushStillCloses(t *testing.T) {
	cfg := Scalable()
	cfg.Dir = t.TempDir()
	fs, err := buffer.OpenFileStore(filepath.Join(cfg.Dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(filepath.Join(cfg.Dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	store := &failingWrites{PageStore: fs}
	e, err := OpenWith(cfg, store, dev)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.CreateTable("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(a, 1, []byte("dirty")) }); err != nil {
		t.Fatal(err)
	}
	store.armed.Store(true)
	if err := e.Close(); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Close over failing writes = %v, want the injected error", err)
	}
	if _, err := e.Log().Append(&wal.Record{Type: wal.RecBegin, TxnID: 1}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Append after Close = %v, want %v", err, wal.ErrClosed)
	}
	if err := fs.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("pages.db still open after Close: %v", err)
	}
}

// Backup copies pages through the pool and restore writes every page it
// is given, so a database most of which was never written round-trips.
func TestBackupWithUnwrittenPages(t *testing.T) {
	const rows, valueLen = 1000, 1000
	cfg := Scalable()
	cfg.Dir = t.TempDir()
	e := memEngine(t, cfg)
	loadFittingThePool(t, e, 0, rows, valueLen)
	requireUnwritten(t, cfg.Dir, e, rows*valueLen/page.Size)
	var buf bytes.Buffer
	if err := e.Backup(&buf); err != nil {
		t.Fatal(err)
	}

	restored := Scalable()
	restored.Dir = t.TempDir()
	store, err := buffer.OpenFileStore(filepath.Join(restored.Dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(filepath.Join(restored.Dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreInto(&buf, store, dev); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(restored)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkRows(t, r, rows, valueLen)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}
