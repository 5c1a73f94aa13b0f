package core

import (
	"fmt"

	"hydra/internal/btree"
	"hydra/internal/heap"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// Recovery describes the work a restart performed (for operators and
// tests).
type Recovery struct {
	Master       wal.LSN // where analysis started: the last checkpoint's master (NilLSN = origin)
	Scanned      int     // log records scanned during analysis
	Redone       int     // records re-applied
	SkippedByLSN int     // records skipped because the page already had them
	LosersUndone int     // loser transactions rolled back
	UndoOps      int     // compensation actions applied
	Committed    int     // committed transactions observed
	IndexEntries int     // index entries rebuilt
}

// analysis is what restart keeps of the log between its two reads: the
// transactions still open at its end, where redo starts, and where the
// log ends.
type analysis struct {
	rep       Recovery
	losers    map[uint64]wal.LSN // open transaction -> its last record
	redoStart wal.LSN
	end       wal.LSN
}

// analyze is ARIES analysis run as the scan that finds the end of the
// log, from the master and before the log opens. It attaches the
// catalog's tables (their heap chains may need redo first, so none is
// walked); redo adds those whose creation page 0 missed. The master is
// where the last checkpoint found every transaction that could still
// be open at or above (checkpoint.go), so the scan meets each one's
// records itself and keeps it until its commit or end record. Redo
// starts at the begin record of the last checkpoint pair met, lowered
// by that pair's DPT.
func (e *Engine) analyze() (analysis, error) {
	master, metas, metaLSN, err := e.readMeta()
	if err != nil {
		return analysis{}, err
	}
	cat := &catalog{byName: make(map[string]*Table, len(metas))}
	for _, m := range metas {
		if err := cat.add(e.newTable(m, nil)); err != nil {
			return analysis{}, err
		}
	}
	e.cat.Store(cat)

	start := master
	if start == wal.NilLSN {
		start = 0
	}
	sc, err := wal.NewScanner(e.logDev, start)
	if err != nil {
		return analysis{}, err
	}
	an := analysis{rep: Recovery{Master: master}, losers: map[uint64]wal.LSN{}, redoStart: start}
	var maxTxn uint64
	for sc.Next() {
		r := sc.Record()
		an.rep.Scanned++
		maxTxn = max(maxTxn, r.TxnID)
		switch r.Type {
		case wal.RecCheckpointEnd:
			dpt, err := decodeCkpt(r.Payload)
			if err != nil {
				return analysis{}, fmt.Errorf("analysis at %d: %w", r.LSN, err)
			}
			// Pages dirty at the checkpoint may hold unflushed effects
			// from before it: redo must start at their oldest recLSN.
			// A writer notes that before it appends its record, so a
			// record below the begin record is covered even if its
			// page was marked dirty only after the DPT was read.
			an.redoStart = r.PrevLSN // the pair's begin record
			for _, recLSN := range dpt {
				if recLSN != 0 && wal.LSN(recLSN) < an.redoStart {
					an.redoStart = wal.LSN(recLSN)
				}
			}
		case wal.RecCommit, wal.RecEnd:
			if r.Type == wal.RecCommit {
				an.rep.Committed++
			}
			delete(an.losers, r.TxnID)
		default:
			if r.TxnID != 0 { // not a system record (checkpoint, chain extension)
				an.losers[r.TxnID] = r.LSN
			}
		}
	}
	if err := sc.Err(); err != nil {
		return analysis{}, err
	}
	// The master names a checkpoint's begin marker or a live
	// transaction's first record, page 0's LSN the last table creation
	// it absorbed: the log must hold both. Nothing is written before
	// this refusal.
	if master != wal.NilLSN && an.rep.Scanned == 0 {
		return analysis{}, fmt.Errorf("%w: the master names LSN %d, the log holds no record from there", ErrLogMismatch, master)
	}
	if metaLSN != 0 && wal.LSN(metaLSN) >= sc.Pos() {
		return analysis{}, fmt.Errorf("%w: page 0 absorbed the record at LSN %d, the log ends at %d", ErrLogMismatch, metaLSN, sc.Pos())
	}
	e.txnSeq.Store(maxTxn)
	an.end = sc.Pos()
	return an, nil
}

// recover finishes ARIES restart over the opened log: redo from the
// redo start (gated per page by pageLSN), undo of the losers with CLR
// logging, and finally index rebuild (indexes are not logged; they are
// derived state).
func (e *Engine) recover(an analysis) error {
	rep := an.rep
	if err := e.redo(an.redoStart, &rep); err != nil {
		return err
	}

	// --- Undo: roll back losers, newest action first. ---
	var uc undoCtx
	for txnID, lastLSN := range an.losers {
		rep.LosersUndone++
		for cur := lastLSN; cur != wal.NilLSN; {
			r, err := wal.ReadRecordAt(e.logDev, cur)
			if err != nil {
				return fmt.Errorf("undo chain of txn %d at %d: %w", txnID, cur, err)
			}
			cur = r.PrevLSN
			switch r.Type {
			case wal.RecCLR:
				cur = r.UndoNext
			case wal.RecUpdate:
				op, err := decodeOp(r.Payload)
				if err != nil {
					return fmt.Errorf("undo decode at %d: %w", r.LSN, err)
				}
				if op.Op == OpExtend {
					continue
				}
				inv := op.inverse()
				clr, err := e.undoOp(txnID, &inv, lastLSN, r.PrevLSN, false, &uc)
				if err != nil {
					return fmt.Errorf("undo %v of txn %d: %w", inv.Op, txnID, err)
				}
				lastLSN = clr
				rep.UndoOps++
			}
		}
		if _, err := e.log.Append(&wal.Record{
			Type: wal.RecEnd, TxnID: txnID, PrevLSN: lastLSN,
		}); err != nil {
			return err
		}
	}
	if err := e.log.Flush(); err != nil {
		return err
	}

	// --- Rebuild: indexes are derived from heap contents. ---
	for _, t := range e.cat.Load().byID {
		if err := t.Heap.RefreshTail(); err != nil {
			return fmt.Errorf("refresh tail of %s: %w", t.Name, err)
		}
		var pairs []btree.KV
		err := t.Heap.Scan(func(rid heap.RID, rec []byte) bool {
			if len(rec) < 8 {
				return true
			}
			pairs = append(pairs, btree.KV{Key: rowKey(rec), Value: rid.Pack()})
			return true
		})
		if err != nil {
			return fmt.Errorf("rebuild scan of %s: %w", t.Name, err)
		}
		btree.SortKVs(pairs)
		idx, err := btree.BulkLoad(e.pool, e.cfg.IndexMode, pairs)
		if err != nil {
			return fmt.Errorf("rebuild index of %s: %w", t.Name, err)
		}
		rep.IndexEntries += len(pairs)
		t.Index = idx
	}
	e.RecoveryReport = rep
	return nil
}

// redo re-applies, streaming the log from start, every data record whose
// page missed it. The log may reference pages the store never persisted
// (growth after a fuzzy backup's page copy, or unsynced file extension
// at a crash): the store is extended to cover a page before its first
// fetch.
func (e *Engine) redo(start wal.LSN, rep *Recovery) error {
	sc, err := wal.NewScanner(e.logDev, start)
	if err != nil {
		return err
	}
	pages, err := e.store.NumPages()
	if err != nil {
		return err
	}
	for sc.Next() {
		r := sc.Record()
		if r.Type != wal.RecUpdate && r.Type != wal.RecCLR {
			continue
		}
		op, err := decodeOp(r.Payload)
		if err != nil {
			return fmt.Errorf("decode op at %d: %w", r.LSN, err)
		}
		last := uint64(op.RID.Page)
		if op.Op == OpExtend {
			last = max(last, op.Key)
		}
		for ; pages <= last && last != uint64(page.InvalidID); pages++ {
			if _, err := e.store.Allocate(); err != nil {
				return fmt.Errorf("extend store for redo: %w", err)
			}
		}
		if op.Op == OpCreate {
			// applyCreate gates each of its two pages by its LSN.
			if err := e.redoCreate(&op, uint64(r.LSN)); err != nil {
				return fmt.Errorf("redo create at %d: %w", r.LSN, err)
			}
			rep.Redone++
			continue
		}
		tbl := e.cat.Load().table(op.Table)
		if tbl == nil {
			return fmt.Errorf("redo references unknown table %d", op.Table)
		}
		if op.Op == OpExtend {
			// RedoFormat is internally idempotent via pageLSN.
			if err := tbl.Heap.RedoFormat(op.RID.Page, page.ID(op.Key), uint64(r.LSN)); err != nil {
				return fmt.Errorf("redo extend at %d: %w", r.LSN, err)
			}
			rep.Redone++
			continue
		}
		pageLSN, err := tbl.Heap.PageLSN(op.RID.Page)
		if err != nil {
			return fmt.Errorf("redo pageLSN at %d: %w", r.LSN, err)
		}
		if pageLSN >= uint64(r.LSN) {
			rep.SkippedByLSN++
			continue
		}
		if err := applyOp(tbl, &op, uint64(r.LSN)); err != nil {
			return fmt.Errorf("redo %v at %d: %w", op.Op, r.LSN, err)
		}
		rep.Redone++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("redo scan: %w", err)
	}
	return nil
}
