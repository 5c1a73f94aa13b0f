package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hydra/internal/wal"
)

// Fuzzy checkpointing, ARIES style, without an active-transaction
// table: a checkpoint writes a begin-checkpoint marker, snapshots the
// dirty-page table (DPT) *without quiescing anything*, writes it in an
// end-checkpoint record, and finally points the master record (on the
// meta page) at the LSN restart analysis starts from. That LSN is the
// lowest of the begin marker and the first record of every transaction
// active once the marker is in, so analysis meets every transaction that
// can still be open in the log itself. Redo starts there too, lowered
// by the DPT's oldest recLSN (recovery.go).
//
// The end-checkpoint payload is:
//
//	zero(4) | count(4) | count x (page(8) recLSN(8))
//
// The leading word counted the active-transaction table of the format
// before this one. It is always zero now; an end record with a nonzero
// one was written by that format and is refused at restart
// (errListsTransactions).

// errListsTransactions refuses an end-checkpoint record that lists
// active transactions: its master names the begin marker, not where
// analysis must start, so restart cannot trust it.
var errListsTransactions = errors.New("core: checkpoint-end record lists active transactions, a log format this version does not read (the master must name the analysis start; end records carry only the dirty-page table)")

func encodeCkpt(dpt map[uint64]uint64) []byte {
	buf := make([]byte, 8, 8+16*len(dpt))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(dpt)))
	for pg, rec := range dpt {
		buf = binary.LittleEndian.AppendUint64(buf, pg)
		buf = binary.LittleEndian.AppendUint64(buf, rec)
	}
	return buf
}

// decodeCkpt returns the DPT an end-checkpoint payload carries: page
// -> recLSN, a lower bound of the LSNs that dirtied it.
func decodeCkpt(b []byte) (map[uint64]uint64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: checkpoint payload truncated")
	}
	if n := binary.LittleEndian.Uint32(b); n != 0 {
		return nil, fmt.Errorf("%w (%d listed)", errListsTransactions, n)
	}
	m := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if len(b) != 16*m {
		return nil, fmt.Errorf("core: checkpoint DPT of %d pages in %d bytes", m, len(b))
	}
	dpt := make(map[uint64]uint64, m)
	for ; len(b) > 0; b = b[16:] {
		dpt[binary.LittleEndian.Uint64(b)] = binary.LittleEndian.Uint64(b[8:])
	}
	return dpt, nil
}

// Checkpoint takes a fuzzy checkpoint: no quiescing, no forced page
// flushes. It bounds restart work — analysis starts at the new master
// record, redo there too, lowered by the DPT's minimum recLSN.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	// When the log is cut into segments that can be recycled, a
	// checkpoint doubles as the page cleaner: flushing dirty pages
	// first empties the DPT so the truncation horizon can advance.
	// (Without recycling the checkpoint stays fully fuzzy.)
	segs, _ := e.logDev.(*wal.FileDevice)
	recycling := segs != nil && segs.Bounded()
	if recycling {
		if err := e.pool.FlushAll(); err != nil {
			return err
		}
	}

	begin, err := e.log.Append(&wal.Record{Type: wal.RecCheckpoint, PrevLSN: wal.NilLSN})
	if err != nil {
		return err
	}
	dpt := e.pool.DirtyPageTable()
	// The active set is read only now, with begin in the log: a
	// transaction whose first LSN this misses appends its first record
	// above begin. One that published the filled frontier appends it at
	// or above that.
	start := min(begin, e.live.oldestFirst())
	horizon := start // lowest LSN a future restart could need
	for _, recLSN := range dpt {
		if recLSN != 0 && wal.LSN(recLSN) < horizon {
			horizon = wal.LSN(recLSN)
		}
	}
	end, err := e.log.Append(&wal.Record{
		Type:    wal.RecCheckpointEnd,
		PrevLSN: begin,
		Payload: encodeCkpt(dpt),
	})
	if err != nil {
		return err
	}
	if err := e.log.WaitFlushed(end); err != nil {
		return err
	}
	// Point the master at the analysis start only after the pair is
	// durable; a crash in between simply falls back to the old master.
	if err := e.writeMeta(start); err != nil {
		return err
	}
	// With the master durable, everything below the horizon is dead.
	if recycling {
		if _, err := segs.TruncateBefore(horizon); err != nil {
			return fmt.Errorf("core: log truncation: %w", err)
		}
	}
	return nil
}
