package heap

import (
	"bytes"
	"errors"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/page"
)

func TestInsertFnLogsInsideLatch(t *testing.T) {
	h := newFile(t)
	var seenRID RID
	rid, err := h.InsertFn([]byte("rec"), func(r RID) (uint64, error) {
		seenRID = r
		return 77, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rid != seenRID {
		t.Fatalf("logFn saw %v, insert returned %v", seenRID, rid)
	}
	if lsn, _ := h.PageLSN(rid.Page); lsn != 77 {
		t.Fatalf("pageLSN = %d, want 77", lsn)
	}
}

func TestInsertFnLogErrorRollsBack(t *testing.T) {
	h := newFile(t)
	boom := errors.New("log full")
	if _, err := h.InsertFn([]byte("doomed"), func(RID) (uint64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Nothing must remain.
	if n, _ := h.Count(); n != 0 {
		t.Fatalf("rolled-back insert left %d records", n)
	}
	// The file still works afterwards.
	if _, err := h.InsertFn([]byte("fine"), logged); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateFnBeforeImageAndStamp(t *testing.T) {
	h := newFile(t)
	rid, _ := h.InsertFn([]byte("before-img"), logged)
	var before []byte
	err := h.UpdateFn(rid, []byte("after-img!"), func(b []byte) (uint64, error) {
		before = append([]byte(nil), b...)
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != "before-img" {
		t.Fatalf("before image = %q", before)
	}
	got, _ := h.Read(rid)
	if string(got) != "after-img!" {
		t.Fatalf("after = %q", got)
	}
	if lsn, _ := h.PageLSN(rid.Page); lsn != 2 {
		t.Fatalf("pageLSN = %d", lsn)
	}
}

func TestUpdateFnLogErrorRestores(t *testing.T) {
	h := newFile(t)
	rid, _ := h.InsertFn([]byte("original"), logged)
	boom := errors.New("log failed")
	err := h.UpdateFn(rid, []byte("a-much-longer-replacement-value"), func([]byte) (uint64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, err := h.Read(rid)
	if err != nil || string(got) != "original" {
		t.Fatalf("record not restored: %q, %v", got, err)
	}
}

func TestUpdateFnNoFitLeavesNothingLogged(t *testing.T) {
	h := newFile(t)
	// Fill a page so a grow-update cannot fit.
	big := bytes.Repeat([]byte("x"), 4000)
	rid, _ := h.InsertFn(big, logged)
	h.InsertFn(bytes.Repeat([]byte("y"), 4000), func(RID) (uint64, error) { return 2, nil })
	logged := false
	err := h.UpdateFn(rid, bytes.Repeat([]byte("z"), 8000), func([]byte) (uint64, error) {
		logged = true
		return 3, nil
	})
	if !errors.Is(err, page.ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	if logged {
		t.Fatal("logFn invoked for an update that could not be applied")
	}
}

func TestDeleteFnBeforeImage(t *testing.T) {
	h := newFile(t)
	rid, _ := h.InsertFn([]byte("victim"), logged)
	var before []byte
	err := h.DeleteFn(rid, func(b []byte) (uint64, error) {
		before = append([]byte(nil), b...)
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != "victim" {
		t.Fatalf("before = %q", before)
	}
	if _, err := h.Read(rid); !errors.Is(err, ErrNotFound) {
		t.Fatal("record survived DeleteFn")
	}
}

func TestDeleteFnLogErrorKeepsRecord(t *testing.T) {
	h := newFile(t)
	rid, _ := h.InsertFn([]byte("keeper"), logged)
	boom := errors.New("no log")
	if err := h.DeleteFn(rid, func([]byte) (uint64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got, err := h.Read(rid); err != nil || string(got) != "keeper" {
		t.Fatalf("record lost on failed delete: %q, %v", got, err)
	}
}

func TestExtendHookInvokedOnChainGrowth(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	var extensions []struct{ old, new page.ID }
	h.SetExtendHook(func(oldTail, newTail page.ID) (uint64, error) {
		extensions = append(extensions, struct{ old, new page.ID }{oldTail, newTail})
		return uint64(100 + len(extensions)), nil
	})
	rec := bytes.Repeat([]byte("e"), 2000)
	for i := 0; i < 20; i++ { // ~40KB: several pages
		if _, err := h.InsertFn(rec, logged); err != nil {
			t.Fatal(err)
		}
	}
	if len(extensions) < 3 {
		t.Fatalf("only %d chain extensions for 20 large inserts", len(extensions))
	}
	// Chain continuity: each extension's old tail links to the new.
	for _, ext := range extensions {
		f, err := pool.Fetch(ext.old)
		if err != nil {
			t.Fatal(err)
		}
		if f.Page.Next() != ext.new {
			t.Fatalf("page %d next = %d, want %d", ext.old, f.Page.Next(), ext.new)
		}
		pool.Unpin(f, false)
	}
}

func TestExtendHookErrorFailsInsert(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("log unavailable")
	h.SetExtendHook(func(page.ID, page.ID) (uint64, error) { return 0, boom })
	rec := bytes.Repeat([]byte("e"), 4000)
	// First two inserts fit in page 1; the third needs an extension.
	h.InsertFn(rec, logged)
	h.InsertFn(rec, logged)
	if _, err := h.InsertFn(rec, logged); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want extend hook error", err)
	}
}

func TestRedoFormatIdempotent(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate a second page to act as the new tail.
	nf, err := pool.NewPage(page.TypeFree)
	if err != nil {
		t.Fatal(err)
	}
	newID := nf.ID()
	pool.Unpin(nf, true)

	if err := h.RedoFormat(h.FirstPage(), newID, 50); err != nil {
		t.Fatal(err)
	}
	// Applying the same redo again must be a no-op.
	if err := h.RedoFormat(h.FirstPage(), newID, 50); err != nil {
		t.Fatal(err)
	}
	f, _ := pool.Fetch(h.FirstPage())
	if f.Page.Next() != newID || f.Page.LSN() != 50 {
		t.Fatalf("chain not formed: next=%d lsn=%d", f.Page.Next(), f.Page.LSN())
	}
	pool.Unpin(f, false)
	nf2, _ := pool.Fetch(newID)
	if nf2.Page.Type() != page.TypeHeap {
		t.Fatalf("new tail type = %v", nf2.Page.Type())
	}
	pool.Unpin(nf2, false)
	// Inserts continue onto the redone chain after RefreshTail.
	if err := h.RefreshTail(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.InsertFn([]byte("post-redo"), logged); err != nil {
		t.Fatal(err)
	}
}

// The dirty-page table names, for a page, a lower bound of the first
// LSN stamped on it since it was clean, whichever writer unpins first.
// A chain extension logs at 100 and unpins the new tail after
// publishing it as the insert target, so an inserter that finds it
// there can stamp it at 105 and unpin first. The second writer runs
// inside the extend hook here, which fixes that order; redo started at
// 105 would skip the extension.
func TestDirtyPageTableKeepsFirstStamp(t *testing.T) {
	log := &frontierLog{}
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 64, Shards: 4, Log: log})
	h, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	var newTail page.ID
	h.SetExtendHook(func(_, nt page.ID) (uint64, error) {
		newTail = nt
		if err := h.InsertAt(RID{Page: nt}, []byte("second writer"), 105); err != nil {
			return 0, err
		}
		return 100, nil
	})
	rec := bytes.Repeat([]byte("e"), 4000)
	for _, lsn := range []uint64{10, 20, 110} { // the third extends the chain
		log.frontier = lsn - 10
		if _, err := h.InsertFn(rec, func(RID) (uint64, error) { return lsn, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if newTail == page.InvalidID {
		t.Fatal("no chain extension")
	}
	if got := pool.DirtyPageTable()[uint64(newTail)]; got != 100 {
		t.Fatalf("recLSN of the new tail = %d, want 100 (the frontier the extension was logged at)", got)
	}
}

// frontierLog is a log that is always durable, whose next record goes
// at frontier.
type frontierLog struct{ frontier uint64 }

func (*frontierLog) WaitFlushed(uint64) error { return nil }
func (l *frontierLog) Frontier() uint64       { return l.frontier }
