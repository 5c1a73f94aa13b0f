package heap

import (
	"errors"
	"fmt"

	"hydra/internal/buffer"
	"hydra/internal/latch"
	"hydra/internal/obs"
	"hydra/internal/page"
)

// Local shorthands keeping the latched sections readable.
type frameHandle = *buffer.Frame

const (
	latchExclusive = latch.Exclusive
	latchShared    = latch.Shared
)

// The *Fn variants run the page operation and the caller's log append
// inside one page-latch critical section, then stamp the returned LSN
// as the pageLSN. This is the ARIES discipline: a page can never
// reach disk containing an effect whose log record does not exist,
// because the latch is held from modification through logging and
// the buffer pool only steals unpinned frames.

// ExtendHook, when set on a File, is invoked (outside page latches)
// whenever the heap chain grows. It must log the structural change
// and return the record's LSN, which is stamped on both pages.
type ExtendHook func(oldTail, newTail page.ID) (uint64, error)

// SetExtendHook installs the structure-modification logging hook.
func (h *File) SetExtendHook(fn ExtendHook) { h.extend = fn }

// InsertFn inserts rec, calling logFn with the chosen RID while the
// page latch is still held; the returned LSN becomes the pageLSN. If
// logFn fails the insert is rolled back physically.
func (h *File) InsertFn(rec []byte, logFn func(rid RID) (uint64, error)) (RID, error) {
	return h.InsertFnC(rec, nil, logFn)
}

// InsertFnC is InsertFn with a phase clock (see ReadC).
func (h *File) InsertFnC(rec []byte, c *obs.PhaseClock, logFn func(rid RID) (uint64, error)) (RID, error) {
	if len(rec) > page.MaxRecordSize {
		return RID{}, page.ErrRecordTooBig
	}
	for {
		h.mu.Lock()
		target := h.last
		h.mu.Unlock()

		f, err := h.pool.FetchC(target, c)
		if err != nil {
			return RID{}, err
		}
		f.Latch.AcquireC(latchExclusive, c)
		slot, err := f.Page.Insert(rec)
		if err == nil {
			rid := RID{Page: target, Slot: uint16(slot)}
			h.pool.WillLog(f)
			lsn, lerr := logFn(rid)
			if lerr != nil {
				f.Page.Delete(slot)
				f.Latch.Release(latchExclusive)
				h.pool.Unpin(f, false)
				return RID{}, lerr
			}
			f.Page.SetLSN(lsn)
			if h.versioned {
				f.Page.BumpVerEpoch()
			}
			f.Latch.Release(latchExclusive)
			h.pool.Unpin(f, true)
			return rid, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			f.Latch.Release(latchExclusive)
			h.pool.Unpin(f, false)
			return RID{}, err
		}
		if err := h.extendLocked(f, target, c); err != nil {
			return RID{}, err
		}
	}
}

// extendLocked grows the chain past the full page f (latched X,
// pinned) or chases an extension made by another inserter. It always
// releases f's latch and pin.
func (h *File) extendLocked(f frameHandle, target page.ID, c *obs.PhaseClock) error {
	next := f.Page.Next()
	if next != page.InvalidID {
		h.mu.Lock()
		if h.last == target {
			h.last = next
		}
		h.mu.Unlock()
		f.Latch.Release(latchExclusive)
		h.pool.Unpin(f, false)
		return nil
	}
	nf, err := h.pool.NewPageC(page.TypeHeap, c)
	if err != nil {
		f.Latch.Release(latchExclusive)
		h.pool.Unpin(f, false)
		return err
	}
	if h.extend != nil {
		// nf is unreachable until h.last names it, so no latch is
		// needed to note it.
		h.pool.WillLog(f)
		h.pool.WillLog(nf)
		lsn, err := h.extend(target, nf.ID())
		if err != nil {
			f.Latch.Release(latchExclusive)
			h.pool.Unpin(f, false)
			h.pool.Unpin(nf, false)
			return err
		}
		f.Page.SetLSN(lsn)
		nf.Page.SetLSN(lsn)
	}
	f.Page.SetNext(nf.ID())
	h.mu.Lock()
	h.last = nf.ID()
	h.mu.Unlock()
	h.pool.Unpin(nf, true)
	f.Latch.Release(latchExclusive)
	h.pool.Unpin(f, true)
	return nil
}

// UpdateFn replaces the record at rid; logFn sees the before-image
// while the latch is held and returns the LSN to stamp.
func (h *File) UpdateFn(rid RID, rec []byte, logFn func(before []byte) (uint64, error)) error {
	return h.UpdateFnC(rid, rec, nil, logFn)
}

// UpdateFnC is UpdateFn with a phase clock (see ReadC).
func (h *File) UpdateFnC(rid RID, rec []byte, c *obs.PhaseClock, logFn func(before []byte) (uint64, error)) error {
	return h.withPageXC(rid, c, func(f *buffer.Frame) error {
		p := f.Page
		beforeAlias, err := p.Read(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, rid)
		}
		before := append([]byte(nil), beforeAlias...)
		// Apply first: a no-fit failure must leave nothing in the log
		// (a logged-but-unapplied update would poison redo).
		if err := p.Update(int(rid.Slot), rec); err != nil {
			if errors.Is(err, page.ErrBadSlot) {
				return fmt.Errorf("%w: %v", ErrNotFound, rid)
			}
			return err
		}
		h.pool.WillLog(f)
		lsn, err := logFn(before)
		if err != nil {
			// Roll the page back; the before-image always fits where
			// it came from (possibly after compaction).
			if rerr := p.Update(int(rid.Slot), before); rerr != nil {
				return fmt.Errorf("heap: update revert failed: %v (after %w)", rerr, err)
			}
			return err
		}
		p.SetLSN(lsn)
		if h.versioned {
			p.BumpVerEpoch()
		}
		return nil
	})
}

// DeleteFn removes the record at rid; logFn sees the before-image.
func (h *File) DeleteFn(rid RID, logFn func(before []byte) (uint64, error)) error {
	return h.DeleteFnC(rid, nil, logFn)
}

// DeleteFnC is DeleteFn with a phase clock (see ReadC).
func (h *File) DeleteFnC(rid RID, c *obs.PhaseClock, logFn func(before []byte) (uint64, error)) error {
	return h.withPageXC(rid, c, func(f *buffer.Frame) error {
		p := f.Page
		before, err := p.Read(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, rid)
		}
		h.pool.WillLog(f)
		lsn, err := logFn(before)
		if err != nil {
			return err
		}
		if err := p.Delete(int(rid.Slot)); err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, rid)
		}
		p.SetLSN(lsn)
		if h.versioned {
			p.BumpVerEpoch()
		}
		return nil
	})
}

// RedoFormat reproduces a chain extension during recovery: the old
// tail's next pointer and the new page's heap formatting, each
// applied only if the page has not already absorbed the change
// (pageLSN test), making redo idempotent.
func (h *File) RedoFormat(oldTail, newTail page.ID, lsn uint64) error {
	f, err := h.pool.Fetch(oldTail)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latchExclusive)
	if f.Page.LSN() < lsn {
		f.Page.SetNext(newTail)
		f.Page.SetLSN(lsn)
		h.pool.Replayed(f, lsn)
		f.Latch.Release(latchExclusive)
		h.pool.Unpin(f, true)
	} else {
		f.Latch.Release(latchExclusive)
		h.pool.Unpin(f, false)
	}

	nf, err := h.pool.Fetch(newTail)
	if err != nil {
		return err
	}
	nf.Latch.Acquire(latchExclusive)
	if nf.Page.LSN() < lsn || nf.Page.Type() != page.TypeHeap {
		nf.Page.Format(newTail, page.TypeHeap)
		nf.Page.SetLSN(lsn)
		h.pool.Replayed(nf, lsn)
		nf.Latch.Release(latchExclusive)
		h.pool.Unpin(nf, true)
	} else {
		nf.Latch.Release(latchExclusive)
		h.pool.Unpin(nf, false)
	}
	// Keep the in-memory tail pointer coherent.
	h.mu.Lock()
	if h.last == oldTail {
		h.last = newTail
	}
	h.mu.Unlock()
	return nil
}

// PageLSN returns rid's page LSN (recovery redo gate).
func (h *File) PageLSN(id page.ID) (uint64, error) {
	f, err := h.pool.Fetch(id)
	if err != nil {
		return 0, err
	}
	defer h.pool.Unpin(f, false)
	f.Latch.Acquire(latchShared)
	defer f.Latch.Release(latchShared)
	return f.Page.LSN(), nil
}
