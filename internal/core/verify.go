package core

import (
	"fmt"

	"hydra/internal/heap"
)

// Verify cross-checks every table's physical structures: each heap
// row must be indexed at exactly its record id, each index entry must
// resolve to a live heap row with the matching key, and the counts
// must agree. It is an offline/diagnostic facility (it takes no
// locks beyond page latches), used after recovery in tests and by
// operators chasing corruption.
func (e *Engine) Verify() error {
	if e.closed.Load() {
		return ErrClosed
	}
	for _, t := range e.cat.Load().byID {
		heapRows := make(map[uint64]heap.RID)
		var dupErr error
		err := t.Heap.Scan(func(rid heap.RID, rec []byte) bool {
			if len(rec) < 8 {
				dupErr = fmt.Errorf("core: %s: runt record at %v", t.Name, rid)
				return false
			}
			key := rowKey(rec)
			if prev, ok := heapRows[key]; ok {
				dupErr = fmt.Errorf("core: %s: key %d stored twice (%v and %v)", t.Name, key, prev, rid)
				return false
			}
			heapRows[key] = rid
			return true
		})
		if err != nil {
			return fmt.Errorf("core: %s: heap scan: %w", t.Name, err)
		}
		if dupErr != nil {
			return dupErr
		}

		indexed := 0
		var idxErr error
		err = t.Index.Scan(0, ^uint64(0), func(key, packed uint64) bool {
			indexed++
			rid, ok := heapRows[key]
			if !ok {
				idxErr = fmt.Errorf("core: %s: index entry %d has no heap row", t.Name, key)
				return false
			}
			if got := heap.Unpack(packed); got != rid {
				idxErr = fmt.Errorf("core: %s: index entry %d points at %v, heap row at %v", t.Name, key, got, rid)
				return false
			}
			// The row must decode back to the key.
			rec, err := t.Heap.Read(rid)
			if err != nil {
				idxErr = fmt.Errorf("core: %s: index entry %d unreadable: %v", t.Name, key, err)
				return false
			}
			if rowKey(rec) != key {
				idxErr = fmt.Errorf("core: %s: row at %v has key %d, indexed as %d", t.Name, rid, rowKey(rec), key)
				return false
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("core: %s: index scan: %w", t.Name, err)
		}
		if idxErr != nil {
			return idxErr
		}
		if indexed != len(heapRows) {
			return fmt.Errorf("core: %s: %d heap rows but %d index entries", t.Name, len(heapRows), indexed)
		}
		if err := t.Index.CheckInvariants(); err != nil {
			return fmt.Errorf("core: %s: %w", t.Name, err)
		}
	}
	return nil
}
