package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

func countRows(t *testing.T, e *Engine, want int) {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := e.Exec(func(tx *Txn) error {
		n = 0
		return tx.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("%d rows, want %d", n, want)
	}
}

// A file-backed engine killed mid-run leaves a wal.log with a
// preallocated tail. Restart, backup and restore must see the log's
// logical bytes only, and a clean close must trim the file to them.
func TestCrashedFileLogWithPreallocatedTail(t *testing.T) {
	cfg := Scalable()
	cfg.Dir = t.TempDir()
	e := memEngine(t, cfg)
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to uint64) {
		for k := from; k < to; k++ {
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte(fmt.Sprintf("v%d", k))) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 50)
	if err := e.Checkpoint(); err != nil { // restart scans from here, not from 0
		t.Fatal(err)
	}
	insert(50, 100)

	// The crash image: the files as they are while the engine runs.
	crashed := Scalable()
	crashed.Dir = t.TempDir()
	for _, name := range []string{"pages.db", "wal.log"} {
		src, err := os.Open(filepath.Join(cfg.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(crashed.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(crashed.Dir, "wal.log")
	logEnd := int64(e.Log().FlushedLSN())
	if st, _ := os.Stat(logPath); st.Size() < 2*logEnd {
		t.Fatalf("crashed wal.log is %d bytes for a %d-byte log: no preallocated tail to test", st.Size(), logEnd)
	}

	r, err := Open(crashed)
	if err != nil {
		t.Fatalf("restart over a preallocated log: %v", err)
	}
	if r.RecoveryReport.Master == wal.NilLSN {
		t.Fatal("restart did not start from the checkpoint")
	}
	countRows(t, r, 100)

	var backup bytes.Buffer
	if err := r.Backup(&backup); err != nil {
		t.Fatal(err)
	}
	pages, _ := r.store.NumPages()
	if max := int(pages)*8192 + 2*int(logEnd) + 4096; backup.Len() > max {
		t.Fatalf("backup is %d bytes, want at most %d: it copied the preallocated tail", backup.Len(), max)
	}
	store, dev := buffer.NewMemStore(), wal.NewMem()
	if err := RestoreInto(&backup, store, dev); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, restored, 100)
	restored.Close()

	end := int64(r.Log().NextLSN())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(logPath); st.Size() < end || st.Size() > end+4096 {
		t.Fatalf("cleanly closed wal.log is %d bytes, log ended near %d", st.Size(), end)
	}
	// And the trimmed file reopens.
	r, err = Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, r, 100)
	r.Close()
}
