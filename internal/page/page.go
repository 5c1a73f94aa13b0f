// Package page defines the on-disk page format shared by heap files
// and B+-trees: a fixed-size slotted page with a header carrying the
// pageLSN required by ARIES-style recovery and a checksum verified on
// every read from stable storage.
//
// Layout (little endian):
//
//	offset size field
//	0      8    pageLSN   (LSN of the last log record applied)
//	8      8    page id
//	16     2    page type
//	18     2    slot count
//	20     2    free-space pointer (start of the record heap)
//	22     2    reserved
//	24     8    next page id (heap chain / B+-tree right sibling)
//	32     4    checksum (CRC-32C over the rest of the page)
//	36     4    version epoch (bumped by versioned heap writes)
//	40     ...  slot array (4 bytes/slot), growing up
//	...    ...  record heap, growing down from Size
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the page size in bytes. 8 KiB matches common storage
// manager defaults (Shore uses 8K pages).
const Size = 8192

// HeaderSize is the number of bytes reserved before the slot array.
const HeaderSize = 40

const slotSize = 4

// ID identifies a page within a store. ID 0 is reserved for store
// metadata; InvalidID marks "no page".
type ID uint64

// InvalidID is the nil page id (used e.g. as the next pointer of the
// last page in a chain).
const InvalidID ID = ^ID(0)

// Type tags what a page holds so recovery and debugging tools can
// interpret it.
type Type uint16

const (
	// TypeFree marks an unformatted or deallocated page.
	TypeFree Type = iota
	// TypeMeta is the store metadata page.
	TypeMeta
	// TypeHeap is a slotted heap-file data page.
	TypeHeap
	// TypeBTreeLeaf is a B+-tree leaf.
	TypeBTreeLeaf
	// TypeBTreeInner is a B+-tree interior node.
	TypeBTreeInner
)

var typeNames = [...]string{"free", "meta", "heap", "btree-leaf", "btree-inner"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint16(t))
}

// Tombstone marks a deleted slot in the slot array.
const tombstone = 0xFFFF

// Errors returned by page operations.
var (
	ErrPageFull     = errors.New("page: not enough free space")
	ErrBadSlot      = errors.New("page: slot out of range, deleted or damaged")
	ErrChecksum     = errors.New("page: checksum mismatch")
	ErrRecordTooBig = errors.New("page: record exceeds maximum size")
)

// MaxRecordSize is the largest record a single page can hold.
const MaxRecordSize = Size - HeaderSize - slotSize

// Page is a fixed-size slotted page. The zero value is not usable;
// call New or Load.
type Page struct {
	buf [Size]byte
}

// New formats an empty page of the given type and id.
func New(id ID, t Type) *Page {
	p := &Page{}
	p.Format(id, t)
	return p
}

// Format (re)initializes the page in place.
func (p *Page) Format(id ID, t Type) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.SetID(id)
	p.SetType(t)
	p.setFreePtr(Size)
	p.SetNext(InvalidID)
}

// Bytes exposes the raw page image. Callers must treat it as
// ephemeral and must not retain it across page mutations.
func (p *Page) Bytes() []byte { return p.buf[:] }

// LSN returns the pageLSN.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[0:8]) }

// SetLSN records the LSN of the last update applied to the page.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[0:8], lsn) }

// ID returns the page id stored in the header.
func (p *Page) ID() ID { return ID(binary.LittleEndian.Uint64(p.buf[8:16])) }

// SetID stores the page id.
func (p *Page) SetID(id ID) { binary.LittleEndian.PutUint64(p.buf[8:16], uint64(id)) }

// Type returns the page type tag.
func (p *Page) Type() Type { return Type(binary.LittleEndian.Uint16(p.buf[16:18])) }

// SetType stores the page type tag.
func (p *Page) SetType(t Type) { binary.LittleEndian.PutUint16(p.buf[16:18], uint16(t)) }

// SlotCount returns the number of slots, including tombstones.
func (p *Page) SlotCount() int { return int(binary.LittleEndian.Uint16(p.buf[18:20])) }

func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[18:20], uint16(n)) }

func (p *Page) freePtr() int     { return int(binary.LittleEndian.Uint16(p.buf[20:22])) }
func (p *Page) setFreePtr(v int) { binary.LittleEndian.PutUint16(p.buf[20:22], uint16(v%65536)) }
func (p *Page) freePtrRaw() int { // Size (8192) fits in uint16, so no wrap in practice
	v := p.freePtr()
	if v == 0 && p.SlotCount() == 0 {
		return Size
	}
	return v
}

// Next returns the successor page id (heap chain or right sibling).
func (p *Page) Next() ID { return ID(binary.LittleEndian.Uint64(p.buf[24:32])) }

// SetNext stores the successor page id.
func (p *Page) SetNext(id ID) { binary.LittleEndian.PutUint64(p.buf[24:32], uint64(id)) }

// VerEpoch returns the page's version epoch: a counter bumped by every
// versioned (MVCC-tracked) write to the page. Zero proves no versioned
// write ever touched the page, letting snapshot readers skip the
// version-chain lookup. The value is advisory — after a crash it may
// read lower than writes that were logged but not flushed, which only
// costs a spurious chain lookup, never a wrong read (the chains
// themselves are volatile and rebuilt empty).
func (p *Page) VerEpoch() uint32 { return binary.LittleEndian.Uint32(p.buf[36:40]) }

// BumpVerEpoch increments the version epoch; call under the page
// X latch alongside SetLSN.
func (p *Page) BumpVerEpoch() {
	binary.LittleEndian.PutUint32(p.buf[36:40], binary.LittleEndian.Uint32(p.buf[36:40])+1)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C of the page with its checksum word taken as
// zero. It is never zero: a zero word marks a page that was never
// written, so a sum of zero is stored as one.
func (p *Page) checksum() uint32 {
	stored := binary.LittleEndian.Uint32(p.buf[32:36])
	binary.LittleEndian.PutUint32(p.buf[32:36], 0)
	sum := crc32.Checksum(p.buf[:], castagnoli)
	binary.LittleEndian.PutUint32(p.buf[32:36], stored)
	return max(sum, 1)
}

// Seal computes and stores the checksum; call before writing the page
// to stable storage.
func (p *Page) Seal() { binary.LittleEndian.PutUint32(p.buf[32:36], p.checksum()) }

// Verify recomputes the checksum and returns ErrChecksum on mismatch.
// A stored checksum of zero passes only on an all-zero page, one the
// store allocated and nobody wrote: Seal never stores zero.
func (p *Page) Verify() error {
	stored := binary.LittleEndian.Uint32(p.buf[32:36])
	if stored == 0 {
		if p.buf == [Size]byte{} {
			return nil
		}
		return fmt.Errorf("%w: page %d: written but not sealed", ErrChecksum, p.ID())
	}
	if sum := p.checksum(); stored != sum {
		return fmt.Errorf("%w: page %d: stored %#x computed %#x", ErrChecksum, p.ID(), stored, sum)
	}
	return nil
}

func (p *Page) slotOffset(i int) int { return HeaderSize + i*slotSize }

func (p *Page) slot(i int) (off, length int) {
	so := p.slotOffset(i)
	return int(binary.LittleEndian.Uint16(p.buf[so : so+2])),
		int(binary.LittleEndian.Uint16(p.buf[so+2 : so+4]))
}

func (p *Page) setSlot(i, off, length int) {
	so := p.slotOffset(i)
	binary.LittleEndian.PutUint16(p.buf[so:so+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[so+2:so+4], uint16(length))
}

// directory returns the slot count and the start of the record heap,
// or ErrBadSlot when the header puts the slot array past the heap or
// the heap past the page. The checksum cannot rule that out: a page
// sealed with a damaged header verifies.
func (p *Page) directory() (n, free int, err error) {
	n, free = p.SlotCount(), p.freePtrRaw()
	if p.slotOffset(n) > free || free > Size {
		return 0, 0, ErrBadSlot
	}
	return n, free, nil
}

// outside reports whether a live slot entry points outside the record
// heap that starts at free.
func outside(off, length, free int) bool { return off < free || off+length > Size }

// record returns the bounds of the live record in slot i, or
// ErrBadSlot when i is out of range, deleted, or the page is damaged.
func (p *Page) record(i int) (off, length int, err error) {
	n, free, err := p.directory()
	if err != nil || i < 0 || i >= n {
		return 0, 0, ErrBadSlot
	}
	off, length = p.slot(i)
	if off == tombstone || outside(off, length, free) {
		return 0, 0, ErrBadSlot
	}
	return off, length, nil
}

// FreeSpace returns the number of payload bytes a new record may use,
// accounting for its slot entry; a damaged page has none.
func (p *Page) FreeSpace() int {
	n, free, err := p.directory()
	if err != nil {
		return 0
	}
	return max(free-p.slotOffset(n+1), 0)
}

// Insert appends a record and returns its slot number. A tombstoned
// slot is reused if one exists. Returns ErrPageFull when the record
// (plus slot overhead) does not fit, ErrRecordTooBig when it can never
// fit on any page, and ErrBadSlot on a damaged page.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrRecordTooBig
	}
	n, free, err := p.directory()
	if err != nil {
		return 0, err
	}
	// Find a reusable tombstone first: it costs no new slot space.
	slot := -1
	for i := 0; i < n; i++ {
		if off, _ := p.slot(i); off == tombstone {
			slot = i
			break
		}
	}
	needSlot := 0
	if slot == -1 {
		needSlot = slotSize
	}
	if free-p.slotOffset(n)-needSlot < len(rec) {
		return 0, ErrPageFull
	}
	newFree := free - len(rec)
	copy(p.buf[newFree:], rec)
	p.setFreePtr(newFree)
	if slot == -1 {
		slot = n
		p.setSlotCount(slot + 1)
	}
	p.setSlot(slot, newFree, len(rec))
	return slot, nil
}

// Read returns the record in the given slot. The returned slice
// aliases the page buffer; callers that retain it must copy.
func (p *Page) Read(slot int) ([]byte, error) {
	off, length, err := p.record(slot)
	if err != nil {
		return nil, err
	}
	return p.buf[off : off+length], nil
}

// Delete tombstones the slot. The record bytes are reclaimed by the
// next Compact.
func (p *Page) Delete(slot int) error {
	if _, _, err := p.record(slot); err != nil {
		return err
	}
	p.setSlot(slot, tombstone, 0)
	return nil
}

// Update replaces the record in slot. If the new record does not fit
// in place, it is relocated within the page; ErrPageFull is returned
// when even compaction would not make room (the caller then deletes
// and re-inserts elsewhere).
func (p *Page) Update(slot int, rec []byte) error {
	off, length, err := p.record(slot)
	if err != nil {
		return err
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	if len(rec) > MaxRecordSize {
		return ErrRecordTooBig
	}
	// Relocate within the page. The old copy's bytes are dead the
	// moment we succeed, so tombstone first and compact to reclaim
	// them; keep the image so that a new record that still does not
	// fit leaves the page as it was. (Putting the old record back after
	// the compaction need not fit: on a damaged page it may overlap
	// the others, which Compact cannot see once it is tombstoned.)
	slotEnd := p.slotOffset(p.SlotCount())
	if p.freePtrRaw()-slotEnd < len(rec) {
		saved := p.buf
		p.setSlot(slot, tombstone, 0)
		if err := p.Compact(); err != nil {
			p.setSlot(slot, off, length) // Compact moved nothing
			return err
		}
		if p.freePtrRaw()-slotEnd < len(rec) {
			p.buf = saved
			return ErrPageFull
		}
	}
	newFree := p.freePtrRaw() - len(rec)
	copy(p.buf[newFree:], rec)
	p.setFreePtr(newFree)
	p.setSlot(slot, newFree, len(rec))
	return nil
}

// Compact rewrites the record heap to squeeze out space freed by
// deletions and relocations. Slot numbers are stable across Compact.
// A damaged page — a slot entry outside the record heap, or live
// records that overlap — fails with ErrBadSlot and is left as it was.
func (p *Page) Compact() error {
	n, free, err := p.directory()
	if err != nil {
		return err
	}
	type live struct{ slot, off, length int }
	var recs []live
	total := 0
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == tombstone {
			continue
		}
		if outside(off, length, free) {
			return ErrBadSlot
		}
		total += length
		recs = append(recs, live{i, off, length})
	}
	if total > Size-free {
		return ErrBadSlot
	}
	// Copy live records into a scratch area, then lay them back down
	// from the page tail.
	var scratch [Size]byte
	pos := Size
	for i := range recs {
		r := &recs[i]
		pos -= r.length
		copy(scratch[pos:], p.buf[r.off:r.off+r.length])
		r.off = pos
	}
	copy(p.buf[pos:], scratch[pos:])
	for _, r := range recs {
		p.setSlot(r.slot, r.off, r.length)
	}
	p.setFreePtr(pos)
	return nil
}

// LiveRecords calls fn for every non-deleted slot in slot order. The
// record slice aliases the page buffer. A damaged page stops the walk
// with ErrBadSlot at the first slot entry outside the record heap.
func (p *Page) LiveRecords(fn func(slot int, rec []byte) bool) error {
	n, free, err := p.directory()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == tombstone {
			continue
		}
		if outside(off, length, free) {
			return ErrBadSlot
		}
		if !fn(i, p.buf[off:off+length]) {
			return nil
		}
	}
	return nil
}

// LiveCount returns the number of non-deleted records; a damaged
// directory counts none.
func (p *Page) LiveCount() int {
	n, _, err := p.directory()
	if err != nil {
		return 0
	}
	live := 0
	for i := 0; i < n; i++ {
		if off, _ := p.slot(i); off != tombstone {
			live++
		}
	}
	return live
}

// Load copies a raw page image into p. It returns an error if b is
// not exactly Size bytes; checksum verification is the caller's
// choice (see Verify).
func (p *Page) Load(b []byte) error {
	if len(b) != Size {
		return fmt.Errorf("page: Load with %d bytes, want %d", len(b), Size)
	}
	copy(p.buf[:], b)
	return nil
}
