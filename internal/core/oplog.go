package core

import (
	"encoding/binary"
	"fmt"

	"hydra/internal/heap"
)

// Op is the logical operation encoded in a log record's payload.
type Op uint8

// Logged operation kinds.
const (
	// OpInsert adds a row; Before is empty.
	OpInsert Op = iota + 1
	// OpUpdate replaces a row in place.
	OpUpdate
	// OpDelete removes a row; After is empty.
	OpDelete
	// OpExtend grows a heap chain (redo-only structure change):
	// RID.Page is the old tail, Key is the new tail page id.
	OpExtend
	// OpCreate creates a table (redo-only, like OpExtend): Table is its
	// id, RID.Page its heap's head page, After its name.
	OpCreate
)

var opNames = map[Op]string{
	OpInsert: "insert", OpUpdate: "update", OpDelete: "delete", OpExtend: "extend", OpCreate: "create",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpRecord is the decoded payload of a data log record.
type OpRecord struct {
	Op     Op
	Table  uint32
	Key    uint64
	RID    heap.RID
	Before []byte
	After  []byte
}

// encodeOp serializes an OpRecord into buf, which it overwrites
// (growing it if needed), and returns the encoded slice, so hot paths
// can amortize the allocation across a transaction's operations:
//
//	op(1) table(4) key(8) rid(8) beforeLen(4) before afterLen(4) after
func encodeOp(buf []byte, r *OpRecord) []byte {
	need := 1 + 4 + 8 + 8 + 4 + len(r.Before) + 4 + len(r.After)
	if cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint32(buf[1:], r.Table)
	binary.LittleEndian.PutUint64(buf[5:], r.Key)
	binary.LittleEndian.PutUint64(buf[13:], r.RID.Pack())
	off := 21
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(r.Before)))
	off += 4
	copy(buf[off:], r.Before)
	off += len(r.Before)
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(r.After)))
	off += 4
	copy(buf[off:], r.After)
	return buf
}

// decodeOp parses an encodeOp payload. The images alias b: restart, the
// only caller, is done with them before it reads the next record.
func decodeOp(b []byte) (OpRecord, error) {
	if len(b) < 29 {
		return OpRecord{}, fmt.Errorf("core: op payload too short (%d bytes)", len(b))
	}
	r := OpRecord{
		Op:    Op(b[0]),
		Table: binary.LittleEndian.Uint32(b[1:]),
		Key:   binary.LittleEndian.Uint64(b[5:]),
		RID:   heap.Unpack(binary.LittleEndian.Uint64(b[13:])),
	}
	off := 21
	bl := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+bl+4 > len(b) {
		return OpRecord{}, fmt.Errorf("core: op payload truncated before image")
	}
	r.Before = b[off : off+bl : off+bl]
	off += bl
	al := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+al > len(b) {
		return OpRecord{}, fmt.Errorf("core: op payload truncated after image")
	}
	r.After = b[off : off+al : off+al]
	return r, nil
}

// inverse returns the operation that undoes r.
func (r *OpRecord) inverse() OpRecord {
	switch r.Op {
	case OpInsert:
		return OpRecord{Op: OpDelete, Table: r.Table, Key: r.Key, RID: r.RID, Before: r.After}
	case OpUpdate:
		return OpRecord{Op: OpUpdate, Table: r.Table, Key: r.Key, RID: r.RID, Before: r.After, After: r.Before}
	case OpDelete:
		return OpRecord{Op: OpInsert, Table: r.Table, Key: r.Key, RID: r.RID, After: r.Before}
	default:
		return OpRecord{Op: OpExtend} // structure changes are never undone
	}
}

// rowRecord is the heap representation of a row: key(8) | value.
func rowRecord(key uint64, value []byte) []byte {
	rec := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(rec, key)
	copy(rec[8:], value)
	return rec
}

// rowKey extracts the key from a heap row record.
func rowKey(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

// rowValue extracts the value from a heap row record, aliasing rec.
// Every caller passes a record it privately owns — a fresh heap.Read
// copy or a transaction-arena undo image — and no consumer retains
// the bytes past the owner's lifetime, so the former defensive copy
// was pure overhead on the row hot path.
func rowValue(rec []byte) []byte { return rec[8:] }
