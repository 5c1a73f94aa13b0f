package core

import (
	"errors"
	"fmt"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/obs"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// upsert is the wire SET: Update, and on a miss Insert.
func upsert(tx *Txn, tbl *Table, key uint64, value []byte) error {
	err := tx.Update(tbl, key, value)
	if errors.Is(err, ErrNotFound) {
		return tx.Insert(tbl, key, value)
	}
	return err
}

// TestAbsentKeyMemo: an Update's miss answers the duplicate probe of
// the Insert of exactly that key that follows it, and of nothing else.
func TestAbsentKeyMemo(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("v")
	memo := func() uint64 { return e.StatsSnapshot().Index.AbsentMemoHits }
	miss := func(tx *Txn, k uint64) {
		t.Helper()
		if err := tx.Update(tbl, k, val); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Update(%d) of a missing key: %v", k, err)
		}
	}

	// The upsert: one probe, and the second Insert sees the first.
	tx := e.Begin()
	miss(tx, 1)
	if err := tx.Insert(tbl, 1, val); err != nil || memo() != 1 {
		t.Fatalf("Insert after the miss: %v, %d memo hits", err, memo())
	}
	if err := tx.Insert(tbl, 1, val); !errors.Is(err, ErrExists) || memo() != 1 {
		t.Fatalf("second Insert of the key: %v, %d memo hits", err, memo())
	}

	// Another key in between: both inserts probe, and both are right.
	miss(tx, 2)
	if err := tx.Insert(tbl, 3, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 2, val); err != nil || memo() != 1 {
		t.Fatalf("Insert(2) after Insert(3): %v, %d memo hits", err, memo())
	}
	if err := tx.Insert(tbl, 2, val); !errors.Is(err, ErrExists) {
		t.Fatalf("second Insert(2): %v", err)
	}

	// A statement that fails takes the note with it.
	miss(tx, 4)
	if err := tx.Insert(tbl, 4, make([]byte, page.MaxRecordSize)); !errors.Is(err, page.ErrRecordTooBig) || memo() != 2 {
		t.Fatalf("oversized Insert: %v, %d memo hits", err, memo())
	}
	if err := tx.Insert(tbl, 4, val); err != nil || memo() != 2 {
		t.Fatalf("Insert(4) after the failed one: %v, %d memo hits", err, memo())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Handles are pooled: a note must not outlive its transaction. The
	// key appears in between, and the recycled handle has to see it.
	tx = e.Begin()
	miss(tx, 5)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 5, val) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // whichever pooled handle comes back
		tx = e.Begin()
		if err := tx.Insert(tbl, 5, val); !errors.Is(err, ErrExists) {
			t.Fatalf("Insert(5) on a recycled handle: %v", err)
		}
		tx.Abort()
	}
	if memo() != 2 {
		t.Fatalf("%d memo hits, want 2", memo())
	}

	// A transaction whose lock set does not hold the row takes no note:
	// partition-owned, and snapshot isolation (whose update does not
	// reach the index before commit at all).
	tx = e.Begin(Intent{Owned: obs.PathDoraSingle})
	miss(tx, 6)
	if tx.absent != (absentKey{}) {
		t.Fatal("an owned transaction noted an absent key")
	}
	if err := tx.Insert(tbl, 6, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cfg := Scalable()
	cfg.MVCC = true
	es := memEngine(t, cfg)
	ts, _ := es.CreateTable("t")
	if err := es.Exec(func(tx *Txn) error { return upsert(tx, ts, 1, val) }, Intent{Optimistic: true}); err != nil {
		t.Fatal(err)
	}
	if n := es.StatsSnapshot().Index.AbsentMemoHits; memo() != 2 || n != 0 {
		t.Fatalf("memo hits: %d locked (want 2), %d under snapshot isolation (want 0)", memo(), n)
	}
}

// coldEngine loads keys ascending rows into a 32-frame engine and then
// reads its way through the table until neither the index's last leaf
// nor the heap's tail is resident, so that the next touch of either
// goes to the store.
func coldEngine(t *testing.T, keys uint64) (*Engine, *Table, *buffer.MemStore) {
	t.Helper()
	store := buffer.NewMemStore()
	cfg := Scalable()
	cfg.Frames = 32
	e, err := OpenWith(cfg, store, wal.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, []byte("payload")) }); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < keys/2; i += 100 {
			if err := e.Exec(func(tx *Txn) error { _, err := tx.Read(tbl, i); return err }); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e, tbl, store
}

// TestFailedFetchOfTheLastLeaf: the rightmost door's page is not
// resident and the store fails. The door falls through, the descent
// meets the same store, and the operation reports the IO error: a read
// or update of a key the index may hold never says not found, an insert
// neither claims the key exists nor goes ahead. A probe above the
// tree's bound needs no page, so it is a true miss, store or no store.
func TestFailedFetchOfTheLastLeaf(t *testing.T) {
	const keys = 20000
	e, tbl, store := coldEngine(t, keys)
	ioErr := errors.New("injected device failure")
	store.FailReads(ioErr)
	ops := map[string]func(*Txn) error{
		"Read of the last key":     func(tx *Txn) error { _, err := tx.Read(tbl, keys-1); return err },
		"Update of the last key":   func(tx *Txn) error { return tx.Update(tbl, keys-1, []byte("x")) },
		"Insert past the end":      func(tx *Txn) error { return tx.Insert(tbl, keys, []byte("x")) },
		"upsert past the end":      func(tx *Txn) error { return upsert(tx, tbl, keys+1, []byte("x")) },
		"Delete of the last key":   func(tx *Txn) error { return tx.Delete(tbl, keys-1) },
		"Insert of the last key":   func(tx *Txn) error { return tx.Insert(tbl, keys-1, []byte("x")) },
		"Read in the door's range": func(tx *Txn) error { _, err := tx.Read(tbl, keys-2); return err },
	}
	for name, op := range ops {
		tx := e.Begin()
		err := op(tx)
		tx.Abort()
		if !errors.Is(err, ioErr) || errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) {
			t.Errorf("%s with the store failing: %v, want the IO error", name, err)
		}
	}
	tx := e.Begin()
	if err := tx.Update(tbl, keys, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update above the bound with the store failing: %v, want not found", err)
	}
	tx.Abort()
	store.FailReads(nil)
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(keys); k < keys+3; k++ {
			if _, err := tx.Read(tbl, k); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("key %d after the failed writes: %w", k, err)
			}
		}
		v, err := tx.Read(tbl, keys-1)
		if err != nil || string(v) != "payload" {
			return fmt.Errorf("last key after the failed writes: %q, %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAfterRestart: recovery rebuilds every index with BulkLoad,
// which publishes its last leaf, so the first new row after a restart
// reaches the index without a descent.
func TestAppendAfterRestart(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			store, dev := buffer.NewMemStore(), wal.NewMem()
			e, err := OpenWith(cfg, store, dev)
			if err != nil {
				t.Fatal(err)
			}
			const rows = 3000
			loadFittingThePool(t, e, 0, rows, 20)
			crash(e)

			e, err = OpenWith(cfg, store, dev)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := e.RecoveryReport.IndexEntries; got != rows {
				t.Fatalf("recovery rebuilt %d index entries, want %d", got, rows)
			}
			tbl, err := e.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			before := e.StatsSnapshot().Index
			if err := e.Exec(func(tx *Txn) error { return upsert(tx, tbl, rows, rowValueFor(rows, 20)) }); err != nil {
				t.Fatal(err)
			}
			st := e.StatsSnapshot().Index
			if st.Descents != before.Descents || st.RightmostHits != before.RightmostHits+2 || st.AbsentMemoHits != before.AbsentMemoHits+1 {
				t.Fatalf("first append after restart: %+v after %+v", st, before)
			}
			loadFittingThePool(t, e, rows+1, 2*rows, 20)
			checkRows(t, e, 2*rows, 20)
			if err := e.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
