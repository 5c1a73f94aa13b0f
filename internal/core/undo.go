package core

import (
	"fmt"

	"hydra/internal/heap"
	"hydra/internal/wal"
)

// undoCtx carries state across the operations of one undo pass (a
// runtime abort or a restart-undo phase). Undoing a delete re-inserts
// the row wherever it fits — possibly not its original slot, because
// tombstones get reused between the forward op and the undo — so
// earlier operations of the same transaction on the same key can no
// longer trust the RID they logged. moved records those relocations;
// later undo steps consult it before touching the heap. Locks make a
// key single-writer, so one map serves a whole restart pass.
type undoCtx struct {
	moved map[undoLoc]heap.RID
}

type undoLoc struct {
	table uint32
	key   uint64
}

func (c *undoCtx) relocated(table uint32, key uint64, rid heap.RID) {
	if c.moved == nil {
		c.moved = make(map[undoLoc]heap.RID)
	}
	c.moved[undoLoc{table, key}] = rid
}

// fix rewrites rid to the key's current location if a preceding undo
// step moved it.
func (c *undoCtx) fix(table uint32, key uint64, rid heap.RID) heap.RID {
	if moved, ok := c.moved[undoLoc{table, key}]; ok {
		return moved
	}
	return rid
}

func (c *undoCtx) forget(table uint32, key uint64) {
	delete(c.moved, undoLoc{table, key})
}

// undoOp compensates one logged operation: it applies the inverse
// action and writes the CLR *describing what was actually done* —
// ARIES's rule, because the inverse of an insert-undone delete may
// land the record in a different slot than the original. The CLR is
// logged inside the same page latch as the action (via the heap's *Fn
// variants), so redo of the CLR replays deterministically.
//
// undoNext names the next record restart undo would process after
// this compensation. It returns the CLR's LSN (the transaction's new
// chain tail).
func (e *Engine) undoOp(txnID uint64, inv *OpRecord, prevLSN, undoNext wal.LSN, maintainIndex bool, uc *undoCtx) (wal.LSN, error) {
	tbl := e.cat.Load().table(inv.Table)
	if tbl == nil {
		return 0, fmt.Errorf("%w: id %d", ErrNoTable, inv.Table)
	}
	var clr wal.LSN
	logCLR := func() (uint64, error) {
		lsn, err := e.log.Append(&wal.Record{
			Type:     wal.RecCLR,
			TxnID:    txnID,
			PrevLSN:  prevLSN,
			PageID:   uint64(inv.RID.Page),
			UndoNext: undoNext,
			Payload:  encodeOp(nil, inv),
		})
		clr = lsn
		return uint64(lsn), err
	}
	switch inv.Op {
	case OpInsert: // undoing a delete: put the row back, wherever it fits
		rid, err := tbl.Heap.InsertFn(inv.After, func(rid heap.RID) (uint64, error) {
			inv.RID = rid // the CLR records the actual placement
			return logCLR()
		})
		if err != nil {
			return 0, err
		}
		// The row may have landed away from its forward-time slot;
		// earlier ops of this transaction must follow it.
		uc.relocated(inv.Table, inv.Key, rid)
		if maintainIndex {
			if err := tbl.Index.Insert(inv.Key, rid.Pack()); err != nil {
				return 0, err
			}
		}
	case OpUpdate: // undoing an update: restore the before-image in place
		inv.RID = uc.fix(inv.Table, inv.Key, inv.RID)
		if err := tbl.Heap.UpdateFn(inv.RID, inv.After, func([]byte) (uint64, error) {
			return logCLR()
		}); err != nil {
			return 0, err
		}
	case OpDelete: // undoing an insert: remove the row where it now is
		inv.RID = uc.fix(inv.Table, inv.Key, inv.RID)
		if err := tbl.Heap.DeleteFn(inv.RID, func([]byte) (uint64, error) {
			return logCLR()
		}); err != nil {
			return 0, err
		}
		uc.forget(inv.Table, inv.Key)
		if maintainIndex {
			if err := tbl.Index.Delete(inv.Key); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("core: cannot undo %v", inv.Op)
	}
	return clr, nil
}
