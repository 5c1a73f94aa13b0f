package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"

	"hydra/internal/btree"
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

// catalog is the engine's tables, published whole in Engine.cat and
// never changed after, so a lookup is one atomic load. Each creation,
// new or redone, publishes a copy with its table added under page 0's
// X latch, which orders them; restart first publishes page 0's own.
type catalog struct {
	byName map[string]*Table
	byID   []*Table // table i at byID[i-1]: ids are dense from 1
}

// table returns the table with id, or nil.
func (c *catalog) table(id uint32) *Table {
	if id == 0 || int(id) > len(c.byID) {
		return nil
	}
	return c.byID[id-1]
}

// add adds t to an unpublished catalog. t must take the next id.
func (c *catalog) add(t *Table) error {
	if int(t.ID) != len(c.byID)+1 {
		return fmt.Errorf("core: table %d (%s) follows table %d in the catalog", t.ID, t.Name, len(c.byID))
	}
	c.byName[t.Name] = t
	c.byID = append(c.byID, t)
	return nil
}

// encodeCatalog serializes the table list for the meta page:
//
//	count(4) then per table: id(4) heapFirst(8) nameLen(2) name
func encodeCatalog(tables []TableMeta) []byte {
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(tables)))
	for _, t := range tables {
		buf = appendCatalogEntry(buf, t)
	}
	return buf
}

func appendCatalogEntry(buf []byte, t TableMeta) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, t.ID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.HeapFirst))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Name)))
	return append(buf, t.Name...)
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
// checkpoint: scan from 0. Page 0 is an ordinary logged page: the
// catalog grows only through OpCreate records, whose LSN the page
// carries, and a checkpoint rewrites the master in place.

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

// metaWith returns the meta record rec with t added to its catalog.
// Table ids only grow, so the entry goes last and the catalog stays in
// id order.
func metaWith(rec []byte, t TableMeta) []byte {
	out := append(make([]byte, 0, len(rec)+14+len(t.Name)), rec...)
	binary.LittleEndian.PutUint32(out[8:], binary.LittleEndian.Uint32(out[8:])+1)
	return appendCatalogEntry(out, t)
}

// writeMeta points the meta page's master at master and forces page 0
// to stable storage. It rewrites those 8 bytes in place and nothing
// else: the catalog and the page's LSN belong to the OpCreate records
// (applyCreate), and restart gates their redo on that LSN. Checkpoints
// call it, and a fresh open for page 0's first image.
func (e *Engine) writeMeta(master wal.LSN) error {
	f, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.Exclusive)
	rec, err := f.Page.Read(0)
	if err != nil {
		f.Latch.Release(latch.Exclusive)
		e.pool.Unpin(f, false)
		return fmt.Errorf("core: meta page has no catalog record: %w", err)
	}
	binary.LittleEndian.PutUint64(rec, uint64(master))
	f.Latch.Release(latch.Exclusive)
	err = e.pool.FlushPage(f)
	e.pool.Unpin(f, err != nil) // a page whose write fails is left dirty
	if err != nil {
		return err
	}
	return e.store.Sync()
}

// applyCreate applies the OpCreate record logged at lsn to the meta
// page and the new heap's head page, both pinned and X-latched by the
// caller. It formats the head and adds the table to the catalog, each
// only if the page's LSN shows the record missing, stamps lsn on what
// it changes, and publishes the table with index idx if the catalog
// lacks it. CreateTable and restart's redo (idx nil: restart rebuilds
// every index before Open returns) both apply the record here.
func (e *Engine) applyCreate(meta, head *buffer.Frame, op *OpRecord, lsn uint64, idx *btree.Tree) (*Table, error) {
	m := TableMeta{ID: op.Table, HeapFirst: op.RID.Page, Name: string(op.After)}
	if head.Page.LSN() < lsn {
		head.Page.Format(m.HeapFirst, page.TypeHeap)
		head.Page.SetLSN(lsn)
		e.pool.Replayed(head, lsn)
	}
	if meta.Page.LSN() < lsn {
		rec, err := meta.Page.Read(0)
		if err != nil {
			return nil, fmt.Errorf("core: meta page has no catalog record: %w", err)
		}
		if err := meta.Page.Update(0, metaWith(rec, m)); err != nil {
			return nil, fmt.Errorf("core: catalog too large for meta page: %w", err)
		}
		meta.Page.SetLSN(lsn)
		e.pool.Replayed(meta, lsn)
	}
	old := e.cat.Load()
	if t := old.table(m.ID); t != nil {
		return t, nil
	}
	// A copy for add to change: old stays as its readers found it.
	cat := &catalog{byName: maps.Clone(old.byName), byID: slices.Clip(old.byID)}
	t := e.newTable(m, idx)
	if err := cat.add(t); err != nil {
		return nil, err
	}
	e.cat.Store(cat)
	return t, nil
}

// readMeta loads the master LSN and table list from the meta page, and
// the page's LSN: that of the last OpCreate record it absorbed.
func (e *Engine) readMeta() (master wal.LSN, metas []TableMeta, pageLSN uint64, err error) {
	f, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return 0, nil, 0, err
	}
	defer e.pool.Unpin(f, false)
	f.Latch.Acquire(latch.Shared)
	defer f.Latch.Release(latch.Shared)
	if f.Page.Type() != page.TypeMeta {
		return 0, nil, 0, fmt.Errorf("core: page 0 is %v, not meta", f.Page.Type())
	}
	rec, err := f.Page.Read(0)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("core: meta page has no catalog record: %w", err)
	}
	master, metas, err = DecodeMeta(rec)
	return master, metas, f.Page.LSN(), err
}
