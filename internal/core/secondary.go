package core

import (
	"errors"
	"fmt"
	"sort"

	"hydra/internal/btree"
	"hydra/internal/heap"
	"hydra/internal/lock"
	"hydra/internal/obs"
)

// SecondaryIndex is a value-derived, non-unique index over a table:
// an extractor maps each row to an attribute, and the index supports
// equality and range lookups by that attribute. Entries are stored in
// a B+-tree under the composite key attr<<32 | rowKey, which makes
// non-unique attributes range scans; consequently both the attribute
// and the row keys of an indexed table must fit in 32 bits.
//
// Secondary indexes are derived state, like primary indexes: their
// definitions live in application code (extractors are functions), so
// after reopening an engine the application re-registers them with
// AddIndex, which rebuilds from the table. Transactional maintenance
// — including rollback compensation — is automatic while registered.
type SecondaryIndex struct {
	Name string
	// Extract derives the attribute from a row; returning ok=false
	// leaves the row out of the index (partial index).
	Extract func(key uint64, value []byte) (attr uint64, ok bool)

	tree *btree.Tree
}

// ErrKeyRange is returned when an indexed table's row key or
// extracted attribute exceeds 32 bits.
var ErrKeyRange = errors.New("core: secondary index requires 32-bit keys and attributes")

const u32 = 1<<32 - 1

func sxKey(attr, rowKey uint64) uint64 { return attr<<32 | rowKey }

// AddIndex registers (and builds, from existing rows) a secondary
// index on the table. The build reads the table in a plain engine
// transaction under a table-level shared lock and fills the new tree
// after the scan, still under that lock. A row whose key or attribute
// does not fit in 32 bits fails the build with ErrKeyRange, and no
// index is registered.
func (t *Table) AddIndex(name string, extract func(key uint64, value []byte) (uint64, bool)) (*SecondaryIndex, error) {
	if t.engine.closed.Load() {
		return nil, ErrClosed
	}
	var tree *btree.Tree
	err := t.engine.Exec(func(tx *Txn) error {
		var entries [][2]uint64 // composite key, row key
		var rangeErr error
		if err := tx.Scan(t, 0, ^uint64(0), func(key uint64, value []byte) bool {
			attr, ok := extract(key, value)
			if !ok {
				return true
			}
			if attr > u32 || key > u32 {
				rangeErr = fmt.Errorf("%w: row key %d, attribute %d", ErrKeyRange, key, attr)
				return false
			}
			entries = append(entries, [2]uint64{sxKey(attr, key), key})
			return true
		}); err != nil {
			return err
		}
		if rangeErr != nil {
			return rangeErr
		}
		var err error
		if tree, err = btree.Create(t.engine.pool, t.engine.cfg.IndexMode); err != nil {
			return err
		}
		for _, e := range entries {
			if err := tree.Insert(e[0], e[1]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := &SecondaryIndex{Name: name, Extract: extract, tree: tree}
	t.idxMu.Lock()
	t.secondary = append(t.secondary, idx)
	t.idxMu.Unlock()
	return idx, nil
}

// Indexes returns the registered secondary indexes.
func (t *Table) Indexes() []*SecondaryIndex {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return append([]*SecondaryIndex(nil), t.secondary...)
}

// DropIndex unregisters a secondary index (its pages are reclaimed on
// reorganization).
func (t *Table) DropIndex(name string) bool {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for i, idx := range t.secondary {
		if idx.Name == name {
			t.secondary = append(t.secondary[:i], t.secondary[i+1:]...)
			return true
		}
	}
	return false
}

// LookupBy iterates the rows whose extracted attribute is exactly
// attr, in row-key order, under a table-level shared lock or, in
// snapshot mode, on the snapshot (see LookupRange).
func (tx *Txn) LookupBy(tbl *Table, idx *SecondaryIndex, attr uint64, fn func(key uint64, value []byte) bool) error {
	return tx.LookupRange(tbl, idx, attr, attr, fn)
}

// LookupRange iterates rows with loAttr <= attribute <= hiAttr in
// (attribute, row-key) order. fn is held to Scan's contract: it may run
// under the index's latches and must not call the engine. The rows are
// resolved after each walk of the secondary index, snapScanChunk
// entries at a time, so the primary index and the heap are never
// entered under its latches.
//
// A snapshot-mode transaction does not use the index, which holds the
// current attributes and not the snapshot's: it scans the whole table
// on the snapshot (its own buffered writes included), keeps the rows
// whose extracted attribute is in range and sorts them. That costs
// O(table) per lookup and takes no lock.
func (tx *Txn) LookupRange(tbl *Table, idx *SecondaryIndex, loAttr, hiAttr uint64, fn func(key uint64, value []byte) bool) error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	if loAttr > u32 || hiAttr > u32 {
		return ErrKeyRange
	}
	if tx.mode.snapshot {
		return tx.snapshotLookup(tbl, idx, loAttr, hiAttr, fn)
	}
	if err := tx.acquire(lock.TableName(tbl.ID), lock.S); err != nil {
		return err
	}
	var rows []uint64
	cursor, end := sxKey(loAttr, 0), sxKey(hiAttr, u32)
	for {
		rows = rows[:0]
		last := cursor
		if err := idx.tree.ScanC(cursor, end, &tx.clock, func(composite, rowKey uint64) bool {
			last = composite
			rows = append(rows, rowKey)
			return len(rows) < snapScanChunk
		}); err != nil {
			return err
		}
		for _, rowKey := range rows {
			packed, err := tbl.Index.GetC(rowKey, &tx.clock)
			if err != nil {
				continue // row vanished between index and heap (stale entry)
			}
			rec, err := tbl.Heap.ReadC(heap.Unpack(packed), &tx.clock)
			if err != nil {
				return err
			}
			if !fn(rowKey, rowValue(rec)) {
				return nil
			}
		}
		if len(rows) < snapScanChunk || last >= end {
			return nil
		}
		cursor = last + 1
	}
}

// snapshotLookup is LookupRange on the snapshot path: the SI scan of
// the table, filtered by idx.Extract and delivered in (attribute,
// row-key) order.
func (tx *Txn) snapshotLookup(tbl *Table, idx *SecondaryIndex, loAttr, hiAttr uint64, fn func(key uint64, value []byte) bool) error {
	type hit struct {
		attr, key uint64
		value     []byte
	}
	var hits []hit
	if err := tx.siScan(tbl, 0, ^uint64(0), func(key uint64, value []byte) bool {
		if attr, ok := idx.Extract(key, value); ok && attr >= loAttr && attr <= hiAttr {
			hits = append(hits, hit{attr, key, append([]byte(nil), value...)})
		}
		return true
	}); err != nil {
		return err
	}
	// The scan delivers in row-key order; a stable sort by attribute
	// keeps it within each attribute.
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].attr < hits[j].attr })
	for _, h := range hits {
		if !fn(h.key, h.value) {
			return nil
		}
	}
	return nil
}

// maintainSecondaries applies the index-side effect of a committed-
// or-in-progress row change: oldVal/newVal are nil when absent
// (insert has no old, delete has no new).
func (t *Table) maintainSecondaries(key uint64, oldVal, newVal []byte) error {
	return t.maintainSecondariesC(key, oldVal, newVal, nil)
}

// maintainSecondariesC is maintainSecondaries with a phase clock;
// recovery undo passes nil.
func (t *Table) maintainSecondariesC(key uint64, oldVal, newVal []byte, c *obs.PhaseClock) error {
	t.idxMu.RLock()
	indexes := t.secondary
	t.idxMu.RUnlock()
	if len(indexes) == 0 {
		return nil
	}
	if key > u32 {
		return fmt.Errorf("%w: row key %d", ErrKeyRange, key)
	}
	for _, idx := range indexes {
		var oldAttr, newAttr uint64
		var hadOld, hasNew bool
		if oldVal != nil {
			oldAttr, hadOld = idx.Extract(key, oldVal)
		}
		if newVal != nil {
			newAttr, hasNew = idx.Extract(key, newVal)
		}
		if hadOld && hasNew && oldAttr == newAttr {
			continue
		}
		if hadOld {
			if oldAttr > u32 {
				return fmt.Errorf("%w: attribute %d", ErrKeyRange, oldAttr)
			}
			if err := idx.tree.DeleteC(sxKey(oldAttr, key), c); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
		}
		if hasNew {
			if newAttr > u32 {
				return fmt.Errorf("%w: attribute %d", ErrKeyRange, newAttr)
			}
			if err := idx.tree.InsertC(sxKey(newAttr, key), key, c); err != nil {
				return err
			}
		}
	}
	return nil
}
