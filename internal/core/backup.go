package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"hydra/internal/buffer"
	"hydra/internal/latch"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// Online backup: pages are copied one at a time under their latches
// (no quiescing — writers keep running), then the log is flushed and
// copied. The result is exactly a crash image: restoring it and
// opening the engine runs ARIES restart, which rolls the copied pages
// forward to the log-copy point and rolls back whatever was in
// flight. Log truncation is held off (ckptMu) for the duration so the
// copied pages' redo window stays covered.
//
// Stream format (little endian):
//
//	magic "HYDRABK2" (8)
//	page count (8) | page images (8 KiB each)
//	log base (8) | log end (8) | log bytes [base, end)
//
// The log base is the device's lowest retained offset: a log recycled
// below its checkpoints starts there, mid-record, and is restored at the
// same offsets.
const backupMagic = "HYDRABK2"

// Backup writes a consistent online backup of the engine to w.
func (e *Engine) Backup(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	// Block checkpoints (and therefore log truncation) while copying.
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	if _, err := io.WriteString(w, backupMagic); err != nil {
		return err
	}
	npages, err := e.store.NumPages()
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], npages)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for id := uint64(0); id < npages; id++ {
		f, err := e.pool.Fetch(page.ID(id))
		if err != nil {
			return fmt.Errorf("core: backup page %d: %w", id, err)
		}
		f.Latch.Acquire(latch.Shared)
		_, werr := w.Write(f.Page.Bytes())
		f.Latch.Release(latch.Shared)
		e.pool.Unpin(f, false)
		if werr != nil {
			return werr
		}
	}
	// Flush and copy the log. Records for any update already applied
	// to a copied page precede this point (WAL discipline), so the
	// copied log covers every copied page.
	if err := e.log.Flush(); err != nil {
		return err
	}
	var logBase int64
	if fd, ok := e.logDev.(*wal.FileDevice); ok {
		logBase = fd.Base()
	}
	logEnd := int64(e.log.FlushedLSN())
	var logRange [16]byte
	binary.LittleEndian.PutUint64(logRange[:8], uint64(logBase))
	binary.LittleEndian.PutUint64(logRange[8:], uint64(logEnd))
	if _, err := w.Write(logRange[:]); err != nil {
		return err
	}
	buf := make([]byte, 256<<10)
	for off := logBase; off < logEnd; {
		n := len(buf)
		if int64(n) > logEnd-off {
			n = int(logEnd - off)
		}
		read, err := e.logDev.ReadAt(buf[:n], off)
		if read == 0 {
			if err != nil {
				return fmt.Errorf("core: backup log at %d: %w", off, err)
			}
			return fmt.Errorf("core: backup log short read at %d", off)
		}
		if _, err := w.Write(buf[:read]); err != nil {
			return err
		}
		off += int64(read)
	}
	return nil
}

// RestoreInto loads a backup stream into fresh stores. Open the
// restored database with OpenWith (recovery runs automatically).
func RestoreInto(r io.Reader, store buffer.PageStore, dev wal.Device) error {
	magic := make([]byte, len(backupMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if string(magic) != backupMagic {
		return fmt.Errorf("core: restore: magic %q is not %q, a format this version reads", magic, backupMagic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	npages := binary.LittleEndian.Uint64(hdr[:])
	var img page.Page
	for id := uint64(0); id < npages; id++ {
		allocated, err := store.Allocate()
		if err != nil {
			return err
		}
		if uint64(allocated) != id {
			return fmt.Errorf("core: restore: store not empty (page %d became %d)", id, allocated)
		}
		if _, err := io.ReadFull(r, img.Bytes()); err != nil {
			return fmt.Errorf("core: restore page %d: %w", id, err)
		}
		// Never-formatted pages carry a zero id in their header; pin
		// the id to the position so WritePage lands correctly.
		img.SetID(page.ID(id))
		if err := store.WritePage(&img); err != nil {
			return err
		}
	}
	var logRange [16]byte
	if _, err := io.ReadFull(r, logRange[:]); err != nil {
		return err
	}
	logBase := int64(binary.LittleEndian.Uint64(logRange[:8]))
	logEnd := int64(binary.LittleEndian.Uint64(logRange[8:]))
	if logBase < 0 || logEnd < logBase {
		return fmt.Errorf("core: restore: log [%d, %d) is not a range", logBase, logEnd)
	}
	buf := make([]byte, 256<<10)
	for off := logBase; off < logEnd; {
		n := len(buf)
		if int64(n) > logEnd-off {
			n = int(logEnd - off)
		}
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return fmt.Errorf("core: restore log at %d: %w", off, err)
		}
		if _, err := dev.WriteAt(buf[:n], off); err != nil {
			return err
		}
		off += int64(n)
	}
	return store.Sync()
}
