package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

// logShapes are the two settings of LogSegmentBytes: the flat wal.log
// and segments small enough to force recycling. Every file-log test
// runs over both; the device under them is the same.
var logShapes = []struct {
	name     string
	segBytes int64
}{{"wal.log", 0}, {"64KiB-segments", 64 << 10}}

func eachLogShape(t *testing.T, base Config, fn func(t *testing.T, cfg Config)) {
	for _, sh := range logShapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := base
			cfg.Dir = t.TempDir()
			cfg.LogSegmentBytes = sh.segBytes
			fn(t, cfg)
		})
	}
}

// logBytesOnDisk sums the sizes of the log's files under dir.
func logBytesOnDisk(t *testing.T, dir string) (n int64) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*"))
	for _, p := range append(segs, filepath.Join(dir, "wal.log")) {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

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

// End-to-end log recycling: under sustained traffic with periodic
// checkpoints a log in bounded segments must keep a bounded number of
// them (one unbounded segment stays one), and recovery must work from
// what is left.
func TestSegmentedLogRecycling(t *testing.T) {
	eachLogShape(t, Conventional(), func(t *testing.T, cfg Config) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		segCounts := []int{}
		for round := 0; round < 6; round++ {
			for i := 0; i < 400; i++ {
				key := uint64(round*400 + i)
				if err := e.Exec(func(tx *Txn) error {
					return tx.Insert(tbl, key, []byte(fmt.Sprintf("v-%d", key)))
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			segCounts = append(segCounts, e.logDev.(*wal.FileDevice).Segments())
		}
		// Segments must not grow monotonically round over round: the
		// checkpoint horizon reclaims old ones.
		if segCounts[len(segCounts)-1] >= segCounts[0]+6 {
			t.Fatalf("log never recycled: segment counts %v", segCounts)
		}
		if base := e.logDev.(*wal.FileDevice).Base(); (base > 0) != (cfg.LogSegmentBytes > 0) {
			t.Fatalf("log base %d with LogSegmentBytes %d (segment counts %v)", base, cfg.LogSegmentBytes, segCounts)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen from the truncated log; everything committed must be there.
		e2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		countRows(t, e2, 6*400)
	})
}

// Crash recovery from a checkpointed (when bounded: truncated) log:
// the master record points above the truncation point by construction.
func TestSegmentedLogCrashRecovery(t *testing.T) {
	eachLogShape(t, Conventional(), func(t *testing.T, cfg Config) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := e.CreateTable("t")
		for i := 0; i < 500; i++ {
			i := i
			if err := e.Exec(func(tx *Txn) error {
				return tx.Insert(tbl, uint64(i), []byte("x"))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Post-checkpoint traffic including a loser.
		for i := 500; i < 550; i++ {
			i := i
			e.Exec(func(tx *Txn) error { return tx.Insert(tbl, uint64(i), []byte("x")) })
		}
		loser := e.Begin()
		if err := loser.Insert(tbl, 9999, []byte("loser")); err != nil {
			t.Fatal(err)
		}
		if err := e.Log().Flush(); err != nil {
			t.Fatal(err)
		}
		crash(e)

		e2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if e2.RecoveryReport.LosersUndone != 1 {
			t.Fatalf("recovery report: %+v", e2.RecoveryReport)
		}
		countRows(t, e2, 550)
	})
}

// A file-backed engine killed mid-run leaves a log with a preallocated
// tail. Restart, backup and restore must see the log's logical bytes
// only, and a clean close must trim the files to them.
func TestCrashedFileLogWithPreallocatedTail(t *testing.T) {
	eachLogShape(t, Scalable(), func(t *testing.T, cfg Config) {
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
		crashed := cfg
		crashed.Dir = t.TempDir()
		if err := os.CopyFS(crashed.Dir, os.DirFS(cfg.Dir)); err != nil {
			t.Fatal(err)
		}
		logEnd := int64(e.Log().FlushedLSN())
		if base := e.logDev.(*wal.FileDevice).Base(); base != 0 {
			t.Fatalf("log recycled below %d: the sizes and the backup below count from LSN 0", base)
		}
		if onDisk := logBytesOnDisk(t, crashed.Dir); onDisk < logEnd+4096 {
			t.Fatalf("crashed log is %d bytes on disk for a %d-byte log: no preallocated tail to test", onDisk, logEnd)
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
		if onDisk := logBytesOnDisk(t, crashed.Dir); onDisk < end || onDisk > end+4096 {
			t.Fatalf("cleanly closed log is %d bytes on disk, log ended near %d", onDisk, end)
		}
		// And the trimmed files reopen.
		r, err = Open(crashed)
		if err != nil {
			t.Fatal(err)
		}
		countRows(t, r, 100)
		r.Close()
	})
}

// A data directory holds one log layout. Opening it under the other
// setting would start an empty log beside a populated pages.db, so it
// is refused, naming both places.
func TestOpenRefusesTheOtherLogLayout(t *testing.T) {
	eachLogShape(t, Conventional(), func(t *testing.T, cfg Config) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 20; k++ {
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte("row")) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		flipped := cfg
		flipped.LogSegmentBytes = 64<<10 - cfg.LogSegmentBytes
		_, err = Open(flipped)
		if err == nil {
			t.Fatal("a directory holding the other log layout opened")
		}
		for _, want := range []string{filepath.Join(cfg.Dir, "wal.log"), filepath.Join(cfg.Dir, "wal")} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal does not name %s: %v", want, err)
			}
		}
		e, err = Open(cfg) // the refused open harmed nothing
		if err != nil {
			t.Fatal(err)
		}
		countRows(t, e, 20)
		e.Close()
	})
}

// Open creates a data directory that does not exist yet, with its
// parents, in either log layout; the table survives a reopen.
func TestOpenCreatesMissingDir(t *testing.T) {
	eachLogShape(t, Conventional(), func(t *testing.T, cfg Config) {
		cfg.Dir = filepath.Join(cfg.Dir, "a", "b")
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Table("t"); err != nil {
			t.Fatal(err)
		}
	})
}
