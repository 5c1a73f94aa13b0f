package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hydra/internal/buffer"
	"hydra/internal/latch"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// TableMeta is the persistent description of one table: one entry of
// the catalog on the meta page.
type TableMeta struct {
	ID        uint32
	HeapFirst page.ID
	Name      string
}

// encodeCatalog serializes the table list for the meta page:
//
//	count(4) then per table: id(4) heapFirst(8) nameLen(2) name
func encodeCatalog(tables []TableMeta) []byte {
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	size := 4
	for _, t := range tables {
		size += 4 + 8 + 2 + len(t.Name)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(tables)))
	off := 4
	for _, t := range tables {
		binary.LittleEndian.PutUint32(buf[off:], t.ID)
		binary.LittleEndian.PutUint64(buf[off+4:], uint64(t.HeapFirst))
		binary.LittleEndian.PutUint16(buf[off+12:], uint16(len(t.Name)))
		copy(buf[off+14:], t.Name)
		off += 14 + len(t.Name)
	}
	return buf
}

func decodeCatalog(b []byte) ([]TableMeta, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: catalog truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	// A damaged count must not size the slice: no entry is under 14 bytes.
	tables := make([]TableMeta, 0, min(n, (len(b)-4)/14))
	for i := 0; i < n; i++ {
		if off+14 > len(b) {
			return nil, fmt.Errorf("core: catalog entry %d truncated", i)
		}
		t := TableMeta{
			ID:        binary.LittleEndian.Uint32(b[off:]),
			HeapFirst: page.ID(binary.LittleEndian.Uint64(b[off+4:])),
		}
		nl := int(binary.LittleEndian.Uint16(b[off+12:]))
		off += 14
		if off+nl > len(b) {
			return nil, fmt.Errorf("core: catalog name %d truncated", i)
		}
		t.Name = string(b[off : off+nl])
		off += nl
		tables = append(tables, t)
	}
	return tables, nil
}

// The meta page's single record is: masterLSN(8) || catalog. The
// master LSN is where restart analysis starts: the last checkpoint's
// begin record, or the first record of a transaction that was active
// then, whichever is lower (checkpoint.go). NilLSN (all ones) means no
// checkpoint: scan from 0.

// DecodeMeta decodes the meta page's record into the master LSN and
// the table list. It is the one reader of the format: the engine's
// restart and offline tools such as hydra-dump both go through it, so
// a damaged record is an error everywhere, never a panic.
func DecodeMeta(rec []byte) (wal.LSN, []TableMeta, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("core: meta record truncated")
	}
	metas, err := decodeCatalog(rec[8:])
	return wal.LSN(binary.LittleEndian.Uint64(rec)), metas, err
}

// writeMeta rewrites the meta page (page 0) with the current table
// list and master record, and forces that page to stable storage.
// DDL and checkpoints are rare; synchronous persistence keeps
// recovery simple (the catalog itself is not logged).
func (e *Engine) writeMeta(master wal.LSN) error {
	var metas []TableMeta
	for _, t := range e.tables {
		metas = append(metas, TableMeta{ID: t.ID, HeapFirst: t.Heap.FirstPage(), Name: t.Name})
	}
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, uint64(master))
	payload = append(payload, encodeCatalog(metas)...)
	f, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.Exclusive)
	f.Page.Format(metaPageID, page.TypeMeta)
	if _, err := f.Page.Insert(payload); err != nil {
		f.Latch.Release(latch.Exclusive)
		e.pool.Unpin(f, false)
		return fmt.Errorf("core: catalog too large for meta page: %w", err)
	}
	f.Latch.Release(latch.Exclusive)
	return e.persistPage(f)
}

// persistPage writes the pinned frame f to the store, unpins it and
// syncs the store. A page whose write fails is left dirty.
func (e *Engine) persistPage(f *buffer.Frame) error {
	err := e.pool.FlushPage(f)
	e.pool.Unpin(f, err != nil)
	if err != nil {
		return err
	}
	return e.store.Sync()
}

// readMeta loads the master LSN and table list from the meta page.
func (e *Engine) readMeta() (wal.LSN, []TableMeta, error) {
	f, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return 0, nil, err
	}
	defer e.pool.Unpin(f, false)
	f.Latch.Acquire(latch.Shared)
	defer f.Latch.Release(latch.Shared)
	if f.Page.Type() != page.TypeMeta {
		return 0, nil, fmt.Errorf("core: page 0 is %v, not meta", f.Page.Type())
	}
	rec, err := f.Page.Read(0)
	if err != nil {
		return 0, nil, fmt.Errorf("core: meta page has no catalog record: %w", err)
	}
	return DecodeMeta(rec)
}
