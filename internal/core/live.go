// The live registry: one slot for each transaction that pins a snapshot
// or logs, from its pin or its first write to its finish. A checkpoint
// reads the slots' first LSNs; the GC's oldest-pin recompute, the
// MaxSnapshotAge expirer and the stats read their pins. Each of them
// walks the slots, which hold only atomics; no lock guards the list.
//
// The list is the record list of Michael's hazard pointers (IEEE TPDS
// 2004): a slot is claimed by CAS of its owner, released by storing 0
// there, and never freed, so the list only grows, to the peak number of
// transactions registered at once. A free slot reads as "no first LSN
// and no pin", so a walker needs no other state.
package core

import (
	"sync/atomic"

	"hydra/internal/wal"
)

// liveSlot is one entry of the registry, padded to a 64-byte cache line
// so that transactions on neighbouring slots never share one.
type liveSlot struct {
	owner atomic.Uint64 // the transaction id; 0 = free
	// first bounds the owner's first record from below for a
	// checkpoint's analysis start: NilLSN until its first write, which
	// stores the log's filled frontier (lockWrite).
	first atomic.Uint64
	pin   atomic.Uint64 // the owner's snapshot; noSnapshot when none (mvcc.go)
	born  atomic.Int64  // the owner's begin stamp, stored before its pin
	// expired is the id of the transaction whose pin the MaxSnapshotAge
	// expirer expired: a pin counts as expired only while it equals the
	// owner, so an expiry that lands after its transaction left is
	// harmless to whoever claims the slot next.
	expired atomic.Uint64
	next    *liveSlot // set before the slot is published, never changed
	_       [16]byte
}

// liveList is the registry: a list of slots, pushed at the head.
type liveList struct {
	head atomic.Pointer[liveSlot]
}

// claim takes a free slot for transaction id: hint, the slot the pooled
// handle last held, first; then the first free one on the list; else a
// new slot pushed at the head.
func (l *liveList) claim(hint *liveSlot, id uint64) *liveSlot {
	if hint != nil && hint.owner.CompareAndSwap(0, id) {
		return hint
	}
	for s := l.head.Load(); s != nil; s = s.next {
		if s.owner.Load() == 0 && s.owner.CompareAndSwap(0, id) {
			return s
		}
	}
	s := &liveSlot{}
	s.owner.Store(id)
	s.first.Store(uint64(wal.NilLSN))
	s.pin.Store(noSnapshot)
	for {
		h := l.head.Load()
		s.next = h
		if l.head.CompareAndSwap(h, s) {
			return s
		}
	}
}

// release frees s: a walker that still finds its owner finds no first
// LSN and no pin.
func (s *liveSlot) release() {
	s.first.Store(uint64(wal.NilLSN))
	s.pin.Store(noSnapshot)
	s.owner.Store(0)
}

// oldestFirst returns the lowest first LSN of the registry, NilLSN when
// no transaction has written.
func (l *liveList) oldestFirst() wal.LSN {
	m := wal.NilLSN
	for s := l.head.Load(); s != nil; s = s.next {
		m = min(m, wal.LSN(s.first.Load()))
	}
	return m
}

// livePin returns s's pin, noSnapshot when it has none or the expirer
// expired it. It reads the owner before the pin and the expiry mark: a
// pin stored after the owner was read belongs to a pinner whose re-check
// a raise walking now is in flight for (see Engine.pin).
func (s *liveSlot) livePin() uint64 {
	id := s.owner.Load()
	if p := s.pin.Load(); p != noSnapshot && s.expired.Load() != id {
		return p
	}
	return noSnapshot
}

// oldestPin returns the lowest unexpired pin of the registry,
// noSnapshot when there is none.
func (l *liveList) oldestPin() uint64 {
	m := noSnapshot
	for s := l.head.Load(); s != nil; s = s.next {
		m = min(m, s.livePin())
	}
	return m
}
