package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

func TestBackupRestoreRoundTrip(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 500; i++ {
			if err := tx.Insert(tbl, i, []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	// An in-flight loser at backup time must not survive the restore.
	loser := e.Begin()
	if err := loser.Insert(tbl, 9999, []byte("loser")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Backup(&buf); err != nil {
		t.Fatal(err)
	}

	store := buffer.NewMemStore()
	dev := wal.NewMem()
	if err := RestoreInto(&buf, store, dev); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.RecoveryReport.LosersUndone != 1 {
		t.Fatalf("restore recovery: %+v", r.RecoveryReport)
	}
	rt, err := r.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	r.Exec(func(tx *Txn) error {
		n := 0
		tx.Scan(rt, 0, ^uint64(0), func(k uint64, v []byte) bool {
			n++
			return true
		})
		if n != 500 {
			t.Fatalf("restored rows = %d", n)
		}
		if _, err := tx.Read(rt, 9999); !errors.Is(err, ErrNotFound) {
			t.Fatalf("loser survived restore: %v", err)
		}
		return nil
	})
	if err := r.Verify(); err != nil {
		t.Fatalf("restored engine verify: %v", err)
	}
	// The original engine keeps working (backup did not disturb it).
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 777, []byte("after")) }); err != nil {
		t.Fatal(err)
	}
}

func TestBackupUnderConcurrentTraffic(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 200; i++ {
			if err := tx.Insert(tbl, i, []byte("seed")); err != nil {
				return err
			}
		}
		return nil
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := 1000 + uint64(w)*100000 + i
				if err := e.Exec(func(tx *Txn) error {
					return tx.Insert(tbl, key, []byte("hot"))
				}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}

	var buf bytes.Buffer
	err := e.Backup(&buf)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	store := buffer.NewMemStore()
	dev := wal.NewMem()
	if err := RestoreInto(&buf, store, dev); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("restored engine inconsistent: %v", err)
	}
	// All 200 seed rows must be present; concurrent rows are present
	// iff their commit made the copied log (any prefix is legal).
	rt, _ := r.Table("t")
	r.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 200; i++ {
			if _, err := tx.Read(rt, i); err != nil {
				t.Fatalf("seed row %d missing: %v", i, err)
			}
		}
		return nil
	})
}

// A log recycled below its checkpoints is backed up from its base, not
// from LSN 0 (whose segment is gone), and restored at the same offsets.
func TestBackupOfRecycledLog(t *testing.T) {
	cfg := Conventional()
	cfg.Dir = t.TempDir()
	cfg.LogSegmentBytes = 64 << 10
	cfg.SyncCommit = false // the device's syncs are not what is tested
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	for k := uint64(0); k < 3000; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte("row")) }); err != nil {
			t.Fatal(err)
		}
		if (k+1)%500 == 0 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if base := e.logDev.(*wal.FileDevice).Base(); base == 0 {
		t.Fatal("the log was not recycled: nothing to test")
	}
	var buf bytes.Buffer
	if err := e.Backup(&buf); err != nil {
		t.Fatal(err)
	}
	store, dev := buffer.NewMemStore(), wal.NewMem()
	if err := RestoreInto(&buf, store, dev); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	countRows(t, r, 3000)
}

func TestRestoreRejectsGarbage(t *testing.T) {
	err := RestoreInto(bytes.NewReader([]byte("NOTABACKUP")), buffer.NewMemStore(), wal.NewMem())
	if err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated stream.
	e := memEngine(t, Conventional())
	e.CreateTable("t")
	var buf bytes.Buffer
	if err := e.Backup(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if err := RestoreInto(bytes.NewReader(cut), buffer.NewMemStore(), wal.NewMem()); err == nil {
		t.Fatal("truncated backup accepted")
	}
	// A stream of the format before the log base: its log length would
	// be read as the base.
	v1 := append([]byte("HYDRABK1"), buf.Bytes()[len(backupMagic):]...)
	if err := RestoreInto(bytes.NewReader(v1), buffer.NewMemStore(), wal.NewMem()); err == nil {
		t.Fatal("a HYDRABK1 stream was read as this format")
	}
}
