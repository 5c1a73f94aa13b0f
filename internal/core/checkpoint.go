package core

import (
	"encoding/binary"
	"fmt"

	"hydra/internal/wal"
)

// Fuzzy checkpointing, ARIES style: a checkpoint writes a
// begin-checkpoint marker, snapshots the active-transaction table
// (ATT) and the dirty-page table (DPT) *without quiescing anything*,
// writes them in an end-checkpoint record, and finally points the
// master record (on the meta page) at the begin marker. Restart
// analysis then starts at the master instead of the log's origin, and
// redo starts at the minimum recLSN in the DPT.

// ckptSnapshot is the end-checkpoint payload.
type ckptSnapshot struct {
	// ATT: active transaction -> lastLSN at snapshot time.
	ATT map[uint64]wal.LSN
	// DPT: dirty page -> recLSN (LSN that first dirtied it).
	DPT map[uint64]uint64
}

func encodeCkpt(s ckptSnapshot) []byte {
	buf := make([]byte, 0, 8+16*(len(s.ATT)+len(s.DPT)))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put32(uint32(len(s.ATT)))
	for id, lsn := range s.ATT {
		put64(id)
		put64(uint64(lsn))
	}
	put32(uint32(len(s.DPT)))
	for pg, rec := range s.DPT {
		put64(pg)
		put64(rec)
	}
	return buf
}

func decodeCkpt(b []byte) (ckptSnapshot, error) {
	s := ckptSnapshot{ATT: map[uint64]wal.LSN{}, DPT: map[uint64]uint64{}}
	off := 0
	read32 := func() (uint32, bool) {
		if off+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	read64 := func() (uint64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, true
	}
	n, ok := read32()
	if !ok {
		return s, fmt.Errorf("core: checkpoint payload truncated")
	}
	for i := uint32(0); i < n; i++ {
		id, ok1 := read64()
		lsn, ok2 := read64()
		if !ok1 || !ok2 {
			return s, fmt.Errorf("core: checkpoint ATT truncated")
		}
		s.ATT[id] = wal.LSN(lsn)
	}
	m, ok := read32()
	if !ok {
		return s, fmt.Errorf("core: checkpoint DPT count truncated")
	}
	for i := uint32(0); i < m; i++ {
		pg, ok1 := read64()
		rec, ok2 := read64()
		if !ok1 || !ok2 {
			return s, fmt.Errorf("core: checkpoint DPT truncated")
		}
		s.DPT[pg] = rec
	}
	return s, nil
}

// Checkpoint takes a fuzzy checkpoint: no quiescing, no forced page
// flushes. It bounds restart work — analysis starts at the new master
// record, redo at the DPT's minimum recLSN.
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
	snap := ckptSnapshot{ATT: map[uint64]wal.LSN{}, DPT: e.pool.DirtyPageTable()}
	horizon := begin // lowest LSN a future restart could need
	e.activeMu.Lock()
	for id, t := range e.active {
		t.mu.Lock()
		// A transaction whose commit or end record is in the log is not
		// listed: that record may lie below begin, where a restart from
		// this checkpoint would never see it.
		if t.logged && !t.decided {
			snap.ATT[id] = t.lastLSN
			if t.firstLSN < horizon {
				horizon = t.firstLSN // undo chains reach the begin record
			}
		}
		t.mu.Unlock()
	}
	e.activeMu.Unlock()
	for _, recLSN := range snap.DPT {
		if recLSN != 0 && wal.LSN(recLSN) < horizon {
			horizon = wal.LSN(recLSN)
		}
	}
	end, err := e.log.Append(&wal.Record{
		Type:    wal.RecCheckpointEnd,
		PrevLSN: begin,
		Payload: encodeCkpt(snap),
	})
	if err != nil {
		return err
	}
	if err := e.log.WaitFlushed(end); err != nil {
		return err
	}
	// Point the master at the begin record only after the pair is
	// durable; a crash in between simply falls back to the old master.
	e.mu.Lock()
	e.master = begin
	err = e.writeMeta(begin)
	e.mu.Unlock()
	if err != nil {
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
