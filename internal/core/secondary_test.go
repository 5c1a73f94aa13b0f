package core

import (
	"errors"
	"testing"
	"time"
)

// byFirstByte indexes rows by the first byte of their value.
func byFirstByte(_ uint64, value []byte) (uint64, bool) {
	if len(value) == 0 {
		return 0, false
	}
	return uint64(value[0]), true
}

func TestSecondaryIndexBuildAndLookup(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 300; i++ {
			if err := tx.Insert(tbl, i, []byte{byte(i % 3), byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	e.Exec(func(tx *Txn) error {
		return tx.LookupBy(tbl, idx, 1, func(k uint64, v []byte) bool {
			if v[0] != 1 {
				t.Fatalf("key %d has class %d", k, v[0])
			}
			keys = append(keys, k)
			return true
		})
	})
	if len(keys) != 100 {
		t.Fatalf("class 1 has %d rows, want 100", len(keys))
	}
	// Row-key order within the attribute.
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("lookup not in row-key order")
		}
	}
	// Range across attributes 1..2.
	n := 0
	e.Exec(func(tx *Txn) error {
		return tx.LookupRange(tbl, idx, 1, 2, func(uint64, []byte) bool {
			n++
			return true
		})
	})
	if n != 200 {
		t.Fatalf("range lookup saw %d rows", n)
	}
}

func TestSecondaryMaintainedByDML(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	count := func(attr uint64) int {
		n := 0
		e.Exec(func(tx *Txn) error {
			return tx.LookupBy(tbl, idx, attr, func(uint64, []byte) bool {
				n++
				return true
			})
		})
		return n
	}
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte{7, 'a'}) })
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 2, []byte{7, 'b'}) })
	if count(7) != 2 {
		t.Fatalf("after inserts: %d", count(7))
	}
	// Update moving a row between attribute classes.
	e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte{9, 'a'}) })
	if count(7) != 1 || count(9) != 1 {
		t.Fatalf("after move: class7=%d class9=%d", count(7), count(9))
	}
	// Update within the same class must not duplicate.
	e.Exec(func(tx *Txn) error { return tx.Update(tbl, 2, []byte{7, 'c'}) })
	if count(7) != 1 {
		t.Fatalf("same-class update duplicated: %d", count(7))
	}
	e.Exec(func(tx *Txn) error { return tx.Delete(tbl, 2) })
	if count(7) != 0 {
		t.Fatalf("after delete: %d", count(7))
	}
}

func TestSecondaryRollbackCompensation(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte{5, 'x'}) })

	tx := e.Begin()
	tx.Insert(tbl, 2, []byte{5, 'y'}) // doomed insert
	tx.Update(tbl, 1, []byte{6, 'x'}) // doomed class move
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}
	e.Exec(func(txr *Txn) error {
		return txr.LookupBy(tbl, idx, 5, func(k uint64, v []byte) bool {
			seen[k] = true
			return true
		})
	})
	if !seen[1] || seen[2] || len(seen) != 1 {
		t.Fatalf("index after abort: %v", seen)
	}
	n := 0
	e.Exec(func(txr *Txn) error {
		return txr.LookupBy(tbl, idx, 6, func(uint64, []byte) bool { n++; return true })
	})
	if n != 0 {
		t.Fatalf("aborted class move visible: %d", n)
	}
}

func TestSecondaryPartialIndex(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	// Only index even classes.
	idx, err := tbl.AddIndex("evens", func(k uint64, v []byte) (uint64, bool) {
		if len(v) == 0 || v[0]%2 != 0 {
			return 0, false
		}
		return uint64(v[0]), true
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Exec(func(tx *Txn) error {
		tx.Insert(tbl, 1, []byte{2})
		tx.Insert(tbl, 2, []byte{3})
		return nil
	})
	n := 0
	e.Exec(func(tx *Txn) error {
		return tx.LookupRange(tbl, idx, 0, ^uint64(0)>>33, func(uint64, []byte) bool { n++; return true })
	})
	if n != 1 {
		t.Fatalf("partial index has %d entries", n)
	}
}

func TestSecondaryKeyRangeEnforced(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if _, err := tbl.AddIndex("bad", func(k uint64, v []byte) (uint64, bool) {
		return 1 << 40, true // attribute too large
	}); err == nil {
		// Build over an empty table cannot fail; the failure comes on
		// first insert instead.
		ierr := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v")) })
		if !errors.Is(ierr, ErrKeyRange) {
			t.Fatalf("oversized attribute accepted: %v", ierr)
		}
	}
}

func TestDropIndexStopsMaintenance(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if _, err := tbl.AddIndex("x", byFirstByte); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes()) != 1 {
		t.Fatal("index not registered")
	}
	if !tbl.DropIndex("x") {
		t.Fatal("drop failed")
	}
	if tbl.DropIndex("x") {
		t.Fatal("double drop succeeded")
	}
	// DML after drop must not fail even with huge keys.
	if err := e.Exec(func(tx *Txn) error {
		return tx.Insert(tbl, 1<<40, []byte{1})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryRebuildAfterReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Scalable()
	cfg.Dir = dir
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 50; i++ {
			if err := tx.Insert(tbl, i, []byte{byte(i % 5)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, _ := e2.Table("t")
	idx, err := tbl2.AddIndex("by-class", byFirstByte) // re-register = rebuild
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	e2.Exec(func(tx *Txn) error {
		return tx.LookupBy(tbl2, idx, 3, func(uint64, []byte) bool { n++; return true })
	})
	if n != 10 {
		t.Fatalf("rebuilt index class 3 = %d, want 10", n)
	}
}

// A build that meets a row keyed past 32 bits fails with ErrKeyRange
// and registers nothing.
func TestAddIndexRefusesWideRowKey(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error {
		for _, k := range []uint64{1, 2, 1 << 40} {
			if err := tx.Insert(tbl, k, []byte{1}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if !errors.Is(err, ErrKeyRange) || idx != nil {
		t.Fatalf("AddIndex = %v, %v; want ErrKeyRange and no index", idx, err)
	}
	if n := len(tbl.Indexes()); n != 0 {
		t.Fatalf("%d indexes registered after a failed build", n)
	}
}

// A snapshot's index lookup answers from the snapshot: the row a writer
// moved to another attribute after the snapshot began is found under
// its old attribute and not its new one, the lookup takes no lock, and
// a writer does not wait for the snapshot to end.
func TestSnapshotLookupReadsItsSnapshot(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte{7, 'a'}) }); err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte{9, 'a'}) }); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 1); err != nil || v[0] != 7 {
		t.Fatalf("snapshot read %v, %v; want attribute 7", v, err)
	}
	lookup := func(attr uint64) map[uint64]byte {
		got := map[uint64]byte{}
		if err := s.LookupBy(tbl, idx, attr, func(k uint64, v []byte) bool {
			got[k] = v[0]
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	before := e.StatsSnapshot().Lock.Acquires
	if got := lookup(7); len(got) != 1 || got[1] != 7 {
		t.Fatalf("LookupBy(7) on the snapshot = %v, want row 1 with attribute 7", got)
	}
	if got := lookup(9); len(got) != 0 {
		t.Fatalf("LookupBy(9) on the snapshot = %v, want nothing", got)
	}
	if n := e.StatsSnapshot().Lock.Acquires - before; n != 0 {
		t.Fatalf("snapshot lookups made %d lock acquisitions", n)
	}
	done := make(chan error, 1)
	go func() { done <- e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte{11, 'a'}) }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		s.Commit()
		<-done
		t.Fatal("a writer waited for the snapshot that looked the row up")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// An SI writer's lookup sees its own buffered write.
	n := 0
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Update(tbl, 1, []byte{13, 'a'}); err != nil {
			return err
		}
		n = 0
		return tx.LookupBy(tbl, idx, 13, func(uint64, []byte) bool { n++; return true })
	}, Intent{Optimistic: true}); err != nil || n != 1 {
		t.Fatalf("SI lookup of its own write: %d rows, %v; want 1", n, err)
	}
}

// A lookup that spans several resolution chunks returns every row once,
// in (attribute, row-key) order, and stops where fn says.
func TestLookupRangeAcrossChunks(t *testing.T) {
	old := snapScanChunk
	snapScanChunk = 4
	defer func() { snapScanChunk = old }()
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 30; i++ {
			if err := tx.Insert(tbl, i, []byte{byte(i % 3)}); err != nil {
				return err
			}
		}
		return nil
	})
	idx, err := tbl.AddIndex("by-class", byFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	e.Exec(func(tx *Txn) error {
		return tx.LookupRange(tbl, idx, 1, u32, func(k uint64, v []byte) bool {
			got = append(got, uint64(v[0])<<32|k)
			return true
		})
	})
	if len(got) != 20 {
		t.Fatalf("lookup returned %d rows, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("lookup out of order at %d: %x after %x", i, got[i], got[i-1])
		}
	}
	n := 0
	e.Exec(func(tx *Txn) error {
		return tx.LookupBy(tbl, idx, 2, func(uint64, []byte) bool { n++; return n < 6 })
	})
	if n != 6 {
		t.Fatalf("lookup ran fn %d times after it asked to stop at 6", n)
	}
}
