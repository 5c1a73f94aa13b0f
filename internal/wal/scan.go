package wal

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Scanner iterates the records of a log device from a starting LSN.
//
// The end of the log is found, not given: the device may hold a
// never-written preallocated tail or the remains of a flush a crash cut
// short. A zero length word is a clean end (nothing was ever written
// there). A record that fails its length or CRC check is a torn tail —
// a crash can leave the last flush at full length with part of it still
// zeros — and also ends iteration cleanly, unless a valid record
// follows it: then it lies inside the log and surfaces as ErrCorrupt.
type Scanner struct {
	dev Device
	pos int64
	end int64
	rec Record
	err error

	// win holds the device bytes [winOff, winOff+len(win)); chunk is
	// how far past a request a refill reads ahead.
	win    []byte
	winOff int64
	chunk  int64
}

// scanChunk is a sequential scan's read-ahead: recovery reads the log
// in device requests of this size, not two per record.
const scanChunk = 1 << 20

// NewScanner returns a Scanner positioned at start.
func NewScanner(dev Device, start LSN) (*Scanner, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, fmt.Errorf("wal: scanner: %w", err)
	}
	return &Scanner{dev: dev, pos: int64(start), end: size, chunk: scanChunk}, nil
}

// Next advances to the next record, reporting false at end of log,
// at a torn tail, or on error (see Err). The record's payload aliases
// the read window: it is valid until the following call, and a caller
// that keeps it copies it.
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	remaining := s.end - s.pos
	if remaining < headerSize {
		return false // torn tail shorter than a header
	}
	hdr := s.peek(headerSize)
	if hdr == nil {
		return false
	}
	total := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if total == 0 {
		return false // clean end of log
	}
	if total < headerSize || total > headerSize+MaxPayload {
		return s.bad(fmt.Errorf("%w: implausible length %d", ErrCorrupt, total))
	}
	if total > remaining {
		return false // torn tail mid-record
	}
	b := s.peek(total)
	if b == nil {
		return false
	}
	rec, length, derr := Decode(b)
	if derr != nil {
		return s.bad(derr)
	}
	rec.LSN = LSN(s.pos)
	s.rec = rec
	s.pos += int64(length)
	return true
}

// peek returns the n bytes at s.pos (the caller keeps n within the
// device), refilling the window from the device when it does not cover
// them. It returns nil, recording any device error, when the device
// comes up short.
func (s *Scanner) peek(n int64) []byte {
	if i := s.pos - s.winOff; i >= 0 && i+n <= int64(len(s.win)) {
		return s.win[i : i+n]
	}
	want := min(max(n, s.chunk), s.end-s.pos)
	if int64(cap(s.win)) < want {
		s.win = make([]byte, want)
	}
	s.win, s.winOff = s.win[:want], s.pos
	got, err := s.dev.ReadAt(s.win, s.pos)
	s.win = s.win[:got]
	if int64(got) >= n {
		return s.win[:n]
	}
	if err != nil && err != io.EOF {
		s.err = fmt.Errorf("wal: scan read at %d: %w", s.pos, err)
	}
	return nil
}

// bad ends iteration at the undecodable record at s.pos: as an error if
// a valid record follows, as a torn tail otherwise. It always returns
// false.
func (s *Scanner) bad(cause error) bool {
	if at, ok := s.nextValid(1); ok {
		s.err = fmt.Errorf("wal: scan at %d: %w (valid record follows at %d)", s.pos, cause, at)
	}
	return false
}

// nextValid returns the offset of the first record that decodes at
// s.pos+from or later. What lies before it cannot be trusted to say
// where it starts, so every offset up to one maximal record away is
// tried.
func (s *Scanner) nextValid(from int) (int64, bool) {
	w := s.peek(min(s.end-s.pos, 2*int64(headerSize+MaxPayload)))
	for i := from; i+headerSize <= len(w); i++ {
		total := int(binary.LittleEndian.Uint32(w[i:]))
		if total < headerSize || i+total > len(w) {
			continue
		}
		if _, _, err := Decode(w[i : i+total]); err == nil {
			return s.pos + int64(i), true
		}
	}
	return 0, false
}

// SeekRecord moves a scanner whose position need not be a record
// boundary — the base of a recycled log, whose oldest segment starts
// mid-record — forward to the first record that decodes, reporting
// whether there is one.
func (s *Scanner) SeekRecord() bool {
	at, ok := s.nextValid(0)
	if ok {
		s.pos = at
	}
	return ok
}

// Record returns the current record. Valid after Next reports true.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the first error encountered, excluding torn tails.
func (s *Scanner) Err() error { return s.err }

// Pos returns the LSN the scanner will read next (after the last
// record returned); on a torn tail this is the usable end of log.
func (s *Scanner) Pos() LSN { return LSN(s.pos) }

// ReadRecordAt decodes the single record starting at lsn. Restart undo
// uses it to follow a loser's PrevLSN chain. The record owns its
// payload: the window it was read into belongs to no other scanner.
func ReadRecordAt(dev Device, lsn LSN) (Record, error) {
	sc, err := NewScanner(dev, lsn)
	if err != nil {
		return Record{}, err
	}
	sc.chunk = 0 // one record: no read-ahead
	if !sc.Next() {
		if sc.Err() != nil {
			return Record{}, sc.Err()
		}
		return Record{}, fmt.Errorf("wal: no record at %d", lsn)
	}
	return sc.Record(), nil
}
