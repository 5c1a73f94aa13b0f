// Package heap implements heap files: unordered collections of
// variable-length records stored in chained slotted pages, addressed
// by record id (page, slot). This is the storage manager's base table
// representation; indexes map keys to the record ids handed out here.
package heap

import (
	"errors"
	"fmt"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/obs"
	"hydra/internal/page"
)

// RID is a record id: the physical address of a record.
type RID struct {
	Page page.ID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// Pack encodes the RID into a uint64 (48-bit page, 16-bit slot) for
// storage in index leaves.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// Unpack decodes a RID produced by Pack.
func Unpack(v uint64) RID { return RID{Page: page.ID(v >> 16), Slot: uint16(v)} }

// ErrNotFound is returned for reads of deleted or never-written RIDs.
var ErrNotFound = errors.New("heap: record not found")

// File is a heap file. It is safe for concurrent use; record content
// consistency across transactions is the caller's (lock manager's)
// concern. Every write takes a log callback (the *Fn forms, logged.go)
// or the LSN of a record already logged (redo and undo), so no page
// changes without a log record behind it.
type File struct {
	pool  *buffer.Pool
	first page.ID

	// mu guards the insert target and chain tail.
	mu   invariant.Mutex[invariant.HeapTail]
	last page.ID

	// extend, when set, logs chain growth (see SetExtendHook).
	extend ExtendHook

	// versioned, when set, makes the logged write paths bump the page
	// version epoch so MVCC snapshot readers know which pages may have
	// version chains (see SetVersioned).
	versioned bool
}

// SetVersioned enables version-epoch maintenance: every logged write
// (InsertFnC/UpdateFnC/DeleteFnC) bumps the page's version epoch under
// the same X latch that stamps the pageLSN. Set once at table attach,
// before concurrent use.
func (h *File) SetVersioned(v bool) { h.versioned = v }

// Create allocates a new heap file and returns it. The first page id
// is the file's persistent identity: store it in the catalog and pass
// it to Open on restart.
func Create(pool *buffer.Pool) (*File, error) {
	f, err := pool.NewPage(page.TypeHeap)
	if err != nil {
		return nil, err
	}
	id := f.ID()
	pool.Unpin(f, true)
	return &File{pool: pool, first: id, last: id}, nil
}

// Open attaches to an existing heap file rooted at first, walking the
// chain to find the current tail.
func Open(pool *buffer.Pool, first page.ID) (*File, error) {
	h := Attach(pool, first)
	if err := h.RefreshTail(); err != nil {
		return nil, err
	}
	return h, nil
}

// FirstPage returns the persistent identity of the file.
func (h *File) FirstPage() page.ID { return h.first }

// Attach returns a handle on an existing heap file without walking
// the chain (which may be inconsistent before recovery redo). Call
// RefreshTail before inserting.
func Attach(pool *buffer.Pool, first page.ID) *File {
	return &File{pool: pool, first: first, last: first}
}

// RefreshTail re-walks the chain to locate the current tail; used
// after recovery has repaired next pointers.
func (h *File) RefreshTail() error {
	last := h.first
	for {
		f, err := h.pool.Fetch(last)
		if err != nil {
			return err
		}
		f.Latch.Acquire(latch.Shared)
		next := f.Page.Next()
		f.Latch.Release(latch.Shared)
		h.pool.Unpin(f, false)
		if next == page.InvalidID {
			break
		}
		last = next
	}
	h.mu.Lock()
	h.last = last
	h.mu.Unlock()
	return nil
}

// InsertAt places a record at a specific RID and stamps lsn as the
// pageLSN; used by recovery redo and by undo of deletes to reproduce
// a record physically. The page must already exist.
func (h *File) InsertAt(rid RID, rec []byte, lsn uint64) error {
	return h.withPageXC(rid, nil, func(f *buffer.Frame) error {
		p := f.Page
		slot, err := p.Insert(rec)
		if err != nil {
			return err
		}
		if uint16(slot) != rid.Slot {
			// Physical reproduction failed; this indicates redo applied
			// against a page state it should have been idempotent on.
			p.Delete(slot)
			return fmt.Errorf("heap: InsertAt %v landed in slot %d", rid, slot)
		}
		p.SetLSN(lsn)
		h.pool.Replayed(f, lsn)
		return nil
	})
}

// Read returns a copy of the record at rid.
func (h *File) Read(rid RID) ([]byte, error) { return h.ReadC(rid, nil) }

// ReadC is Read with a phase clock: buffer misses and latch waits
// encountered along the way are attributed to c. A nil clock behaves
// exactly like Read.
func (h *File) ReadC(rid RID, c *obs.PhaseClock) ([]byte, error) {
	f, err := h.pool.FetchC(rid.Page, c)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(f, false)
	f.Latch.AcquireC(latch.Shared, c)
	defer f.Latch.Release(latch.Shared)
	rec, err := f.Page.Read(int(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return append([]byte(nil), rec...), nil
}

// ReadVersionedC is ReadC plus the page's version epoch, read under
// the same S latch as the record. A zero epoch tells MVCC snapshot
// readers the page never carried a versioned write, so the record is
// authoritative without a chain lookup. The epoch is returned even on
// ErrNotFound: a missing slot on a touched page still needs the chain
// consulted.
func (h *File) ReadVersionedC(rid RID, c *obs.PhaseClock) ([]byte, uint32, error) {
	f, err := h.pool.FetchC(rid.Page, c)
	if err != nil {
		return nil, 0, err
	}
	defer h.pool.Unpin(f, false)
	f.Latch.AcquireC(latch.Shared, c)
	defer f.Latch.Release(latch.Shared)
	epoch := f.Page.VerEpoch()
	rec, err := f.Page.Read(int(rid.Slot))
	if err != nil {
		return nil, epoch, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return append([]byte(nil), rec...), epoch, nil
}

// withPageXC runs fn with rid's page fetched, pinned, and X-latched,
// marking it dirty on success. Buffer misses and latch waits are
// attributed to c (see ReadC).
func (h *File) withPageXC(rid RID, c *obs.PhaseClock, fn func(*buffer.Frame) error) error {
	f, err := h.pool.FetchC(rid.Page, c)
	if err != nil {
		return err
	}
	f.Latch.AcquireC(latch.Exclusive, c)
	err = fn(f)
	f.Latch.Release(latch.Exclusive)
	h.pool.Unpin(f, err == nil)
	return err
}

// UpdateWithLSN applies an update and stamps the page LSN in one
// latched step (restart's redo of a logged update).
func (h *File) UpdateWithLSN(rid RID, rec []byte, lsn uint64) error {
	return h.withPageXC(rid, nil, func(f *buffer.Frame) error {
		p := f.Page
		if err := p.Update(int(rid.Slot), rec); err != nil {
			if errors.Is(err, page.ErrBadSlot) {
				return fmt.Errorf("%w: %v", ErrNotFound, rid)
			}
			return err
		}
		p.SetLSN(lsn)
		h.pool.Replayed(f, lsn)
		return nil
	})
}

// DeleteWithLSN deletes and stamps the page LSN.
func (h *File) DeleteWithLSN(rid RID, lsn uint64) error {
	return h.withPageXC(rid, nil, func(f *buffer.Frame) error {
		p := f.Page
		if err := p.Delete(int(rid.Slot)); err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, rid)
		}
		p.SetLSN(lsn)
		h.pool.Replayed(f, lsn)
		return nil
	})
}

// Scan calls fn for every live record in file order. The rec slice is
// only valid during the callback. Returning false stops the scan.
func (h *File) Scan(fn func(rid RID, rec []byte) bool) error {
	id := h.first
	for id != page.InvalidID {
		f, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		f.Latch.Acquire(latch.Shared)
		stop := false
		err = f.Page.LiveRecords(func(slot int, rec []byte) bool {
			if !fn(RID{Page: id, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		next := f.Page.Next()
		f.Latch.Release(latch.Shared)
		h.pool.Unpin(f, false)
		if err != nil {
			return fmt.Errorf("heap: scan page %d: %w", id, err)
		}
		if stop {
			return nil
		}
		id = next
	}
	return nil
}

// Count returns the number of live records (full scan).
func (h *File) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) bool { n++; return true })
	return n, err
}
