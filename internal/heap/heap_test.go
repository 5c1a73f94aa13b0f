package heap

import (
	"bytes"
	"errors"

	"sync"
	"testing"
	"testing/quick"

	"hydra/internal/buffer"
	"hydra/internal/page"
	"hydra/internal/rng"
)

func newFile(t *testing.T) *File {
	t.Helper()
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// logged is the log callback of tests that do not look at the log: it
// logs nothing and hands out LSN 1.
func logged[T any](T) (uint64, error) { return 1, nil }

func TestRIDPackUnpack(t *testing.T) {
	f := func(pg uint32, slot uint16) bool {
		r := RID{Page: page.ID(pg), Slot: slot}
		return Unpack(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if (RID{Page: 3, Slot: 4}).String() != "rid(3,4)" {
		t.Error("RID.String mismatch")
	}
}

func TestInsertReadUpdateDelete(t *testing.T) {
	h := newFile(t)
	rid, err := h.InsertFn([]byte("v1"), logged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(rid)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if err := h.UpdateFn(rid, []byte("v2-longer"), logged); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Read(rid); string(got) != "v2-longer" {
		t.Fatalf("after update: %q", got)
	}
	if err := h.DeleteFn(rid, logged); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	if err := h.DeleteFn(rid, logged); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := h.UpdateFn(rid, []byte("x"), logged); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update after delete: %v", err)
	}
}

func TestChainGrowthAndScan(t *testing.T) {
	h := newFile(t)
	rec := bytes.Repeat([]byte("r"), 500)
	const n = 100 // ~50KB across ~7 pages
	rids := map[RID]bool{}
	for i := 0; i < n; i++ {
		rid, err := h.InsertFn(rec, logged)
		if err != nil {
			t.Fatal(err)
		}
		if rids[rid] {
			t.Fatalf("duplicate RID %v", rid)
		}
		rids[rid] = true
	}
	count := 0
	seen := map[RID]bool{}
	err := h.Scan(func(rid RID, rec []byte) bool {
		count++
		seen[rid] = true
		if len(rec) != 500 {
			t.Fatalf("scan returned %d-byte record", len(rec))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan found %d records, want %d", count, n)
	}
	for rid := range rids {
		if !seen[rid] {
			t.Fatalf("scan missed %v", rid)
		}
	}
	if c, _ := h.Count(); c != n {
		t.Fatalf("Count = %d", c)
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := newFile(t)
	for i := 0; i < 10; i++ {
		h.InsertFn([]byte("x"), logged)
	}
	count := 0
	h.Scan(func(RID, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestOpenFindsTail(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("z"), 1000)
	for i := 0; i < 30; i++ { // forces multiple pages
		if _, err := h.InsertFn(rec, logged); err != nil {
			t.Fatal(err)
		}
	}
	h2, err := Open(pool, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	// Inserting through the reopened handle must not corrupt the chain.
	if _, err := h2.InsertFn([]byte("after-reopen"), logged); err != nil {
		t.Fatal(err)
	}
	want, _ := h.Count()
	got, _ := h2.Count()
	if want != got || got != 31 {
		t.Fatalf("counts diverge: %d vs %d", want, got)
	}
}

func TestTooBigRecord(t *testing.T) {
	h := newFile(t)
	if _, err := h.InsertFn(make([]byte, page.MaxRecordSize+1), logged); !errors.Is(err, page.ErrRecordTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestLSNStamping(t *testing.T) {
	h := newFile(t)
	rid, err := h.InsertFn([]byte("logged"), func(RID) (uint64, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.UpdateWithLSN(rid, []byte("logged2"), 43); err != nil {
		t.Fatal(err)
	}
	if err := h.DeleteWithLSN(rid, 44); err != nil {
		t.Fatal(err)
	}
	// The page's LSN must be the last stamped value.
	pool := h.pool
	f, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if f.Page.LSN() != 44 {
		t.Fatalf("pageLSN = %d, want 44", f.Page.LSN())
	}
	pool.Unpin(f, false)
}

func TestConcurrentInserts(t *testing.T) {
	h := newFile(t)
	const workers, per = 8, 200
	var mu sync.Mutex
	all := map[RID][]byte{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w))
			for i := 0; i < per; i++ {
				rec := make([]byte, src.IntRange(10, 400))
				src.Bytes(rec)
				rec[0] = byte(w) // tag
				rid, err := h.InsertFn(rec, logged)
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mu.Lock()
				all[rid] = append([]byte(nil), rec...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(all) != workers*per {
		t.Fatalf("RID collisions: %d unique for %d inserts", len(all), workers*per)
	}
	for rid, want := range all {
		got, err := h.Read(rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %v corrupted: %v", rid, err)
		}
	}
}

func TestInsertAtRedo(t *testing.T) {
	h := newFile(t)
	rid, err := h.InsertFn([]byte("original"), logged)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DeleteFn(rid, logged); err != nil {
		t.Fatal(err)
	}
	// Redo reproduces the insert at the same RID (tombstone reuse).
	if err := h.InsertAt(rid, []byte("original"), 9); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(rid)
	if err != nil || string(got) != "original" {
		t.Fatalf("redo read: %q, %v", got, err)
	}
}

func BenchmarkInsert(b *testing.B) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 4096, Shards: 16})
	h, err := Create(pool)
	if err != nil {
		b.Fatal(err)
	}
	rec := bytes.Repeat([]byte("b"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.InsertFn(rec, logged); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 4096, Shards: 16})
	h, _ := Create(pool)
	var rids []RID
	rec := bytes.Repeat([]byte("b"), 100)
	for i := 0; i < 10000; i++ {
		rid, _ := h.InsertFn(rec, logged)
		rids = append(rids, rid)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := h.Read(rids[i%len(rids)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
