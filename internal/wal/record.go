// Package wal implements an ARIES-style write-ahead log. It provides
// both a conventional serial log buffer (one mutex guards allocation
// and copy — the "seemingly serial operation" the paper calls out)
// and a scalable one modelled on Aether: a consolidation array that
// merges concurrent insertions into group allocations, decoupled
// buffer fill so the critical section excludes the memcpy, and a
// pipelined flush daemon with group commit.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// LSN is a log sequence number: the byte offset of a record in the
// log stream. LSN 0 is the first record; NilLSN marks "none".
type LSN uint64

// NilLSN is the absent LSN (e.g. prevLSN of a transaction's first
// record).
const NilLSN = LSN(^uint64(0))

// RecType tags a log record.
type RecType uint8

// Log record types, the standard ARIES set.
const (
	RecBegin         RecType = iota + 1 // transaction begin
	RecUpdate                           // page update with undo+redo images
	RecCommit                           // transaction commit point
	RecAbort                            // transaction abort decision
	RecEnd                              // transaction fully finished
	RecCLR                              // compensation (redo-only undo)
	RecCheckpoint                       // begin-checkpoint marker
	RecCheckpointEnd                    // end-checkpoint with DPT payload
)

var recNames = map[RecType]string{
	RecBegin: "begin", RecUpdate: "update", RecCommit: "commit",
	RecAbort: "abort", RecEnd: "end", RecCLR: "clr",
	RecCheckpoint: "ckpt-begin", RecCheckpointEnd: "ckpt-end",
}

func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is a decoded log record.
type Record struct {
	LSN     LSN
	Type    RecType
	TxnID   uint64
	PrevLSN LSN // previous record of the same transaction
	PageID  uint64
	// UndoNext is used by CLRs: the next record of the transaction to
	// undo. NilLSN elsewhere.
	UndoNext LSN
	Payload  []byte
}

// Header layout:
//
//	0  4  total length (header + payload)
//	4  4  CRC-32C over bytes [8, total)
//	8  1  type
//	9  8  txn id
//	17 8  prevLSN
//	25 8  page id
//	33 8  undoNext
//	41 .. payload
const headerSize = 41

// MaxPayload bounds a single record's payload; larger updates must be
// split by the caller. Keeps any record smaller than the smallest
// supported ring buffer.
const MaxPayload = 256 << 10

// Errors from record encoding/decoding and log scanning.
var (
	ErrPayloadTooBig = errors.New("wal: payload exceeds MaxPayload")
	ErrCorrupt       = errors.New("wal: corrupt record")
	ErrTorn          = errors.New("wal: torn tail")
)

// EncodedSize returns the on-log size of a record with the given
// payload length.
func EncodedSize(payloadLen int) int { return headerSize + payloadLen }

// Encode serializes r (excluding r.LSN, which is implied by position)
// into buf, which must be at least EncodedSize(len(r.Payload)) bytes.
// It returns the number of bytes written.
func Encode(r *Record, buf []byte) (int, error) {
	return encodeFields(buf, r.Type, r.TxnID, r.PrevLSN, r.PageID, r.UndoNext, r.Payload)
}

// encodeFields is Encode without the Record indirection, so hot paths
// can serialize straight from scalar fields.
func encodeFields(buf []byte, typ RecType, txnID uint64, prev LSN, pageID uint64, undoNext LSN, payload []byte) (int, error) {
	if len(payload) > MaxPayload {
		return 0, ErrPayloadTooBig
	}
	total := headerSize + len(payload)
	if len(buf) < total {
		return 0, fmt.Errorf("wal: encode buffer too small: %d < %d", len(buf), total)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(total))
	buf[8] = byte(typ)
	binary.LittleEndian.PutUint64(buf[9:17], txnID)
	binary.LittleEndian.PutUint64(buf[17:25], uint64(prev))
	binary.LittleEndian.PutUint64(buf[25:33], pageID)
	binary.LittleEndian.PutUint64(buf[33:41], uint64(undoNext))
	copy(buf[41:], payload)
	crc := crc32.Checksum(buf[8:total], castagnoli)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return total, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode parses one record from the front of buf. The returned
// record's Payload aliases buf. It returns the encoded length.
// ErrTorn means buf ends mid-record (a legitimate crash artifact);
// ErrCorrupt means the bytes are inconsistent.
func Decode(buf []byte) (Record, int, error) {
	if len(buf) < headerSize {
		return Record{}, 0, ErrTorn
	}
	total := int(binary.LittleEndian.Uint32(buf[0:4]))
	if total < headerSize || total > headerSize+MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, total)
	}
	if len(buf) < total {
		return Record{}, 0, ErrTorn
	}
	want := binary.LittleEndian.Uint32(buf[4:8])
	if got := crc32.Checksum(buf[8:total], castagnoli); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	r := Record{
		Type:     RecType(buf[8]),
		TxnID:    binary.LittleEndian.Uint64(buf[9:17]),
		PrevLSN:  LSN(binary.LittleEndian.Uint64(buf[17:25])),
		PageID:   binary.LittleEndian.Uint64(buf[25:33]),
		UndoNext: LSN(binary.LittleEndian.Uint64(buf[33:41])),
		Payload:  buf[41:total],
	}
	return r, total, nil
}
