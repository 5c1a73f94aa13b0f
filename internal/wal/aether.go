package wal

import (
	"runtime"
	"sync/atomic"
	"time"

	"hydra/internal/obs"
)

// consArray is the consolidation array of the Aether log protocol.
// Concurrent inserters that would otherwise each reserve log space
// instead combine their requests in a slot: the first arrival (the
// group leader) reserves space for the whole group with one add; every
// member then copies its record into its own sub-range concurrently.
// Reservations per record approach 1/group-size under load.
type consArray struct {
	slots []caslot
	rr    atomic.Uint64 // round-robin slot cursor
}

// caslot packs the group state into atomics:
//
//	word: bits 63..62 status (0 free, 1 open, 2 closed), bits 61..0
//	      accumulated group size in bytes
//	base: published base LSN + 1 (0 = not yet published)
//	done: bytes copied by finished members; when done == size the
//	      last member completes the group's reservation and recycles
//	      the slot
//	ticket: the group's reservation, set by the leader before base
type caslot struct {
	word   atomic.Uint64
	base   atomic.Uint64
	done   atomic.Uint64
	ticket uint64
	_      [32]byte // keep slots on separate cache lines
}

const (
	caStatusShift = 62
	caSizeMask    = (uint64(1) << caStatusShift) - 1
	caFree        = uint64(0)
	caOpen        = uint64(1)
	caClosed      = uint64(2)
)

func caPack(status, size uint64) uint64 { return status<<caStatusShift | size }
func caStatus(w uint64) uint64          { return w >> caStatusShift }
func caSize(w uint64) uint64            { return w & caSizeMask }

func newConsArray(n int) *consArray {
	return &consArray{slots: make([]caslot, n)}
}

// join attempts to enter a consolidation group with a request of n
// bytes. It returns (slot, offset, leader): offset is the caller's
// displacement within the group reservation; leader reports whether
// the caller must make the group's reservation.
// max bounds the group size so one group can always fit in the ring.
func (ca *consArray) join(n, max uint64) (s *caslot, offset uint64, leader bool) {
	i := ca.rr.Add(1)
	for {
		s = &ca.slots[i%uint64(len(ca.slots))]
		w := s.word.Load()
		switch {
		case caStatus(w) == caFree:
			if s.word.CompareAndSwap(w, caPack(caOpen, n)) {
				return s, 0, true
			}
		case caStatus(w) == caOpen && caSize(w)+n <= max:
			if s.word.CompareAndSwap(w, caPack(caOpen, caSize(w)+n)) {
				return s, caSize(w), false
			}
		default: // closed or full: move to the next slot, yielding
			// once a lap: the slots free only as their groups finish
			if i++; i%uint64(len(ca.slots)) == 0 {
				runtime.Gosched()
			}
		}
	}
}

// close transitions the leader's slot to closed and returns the final
// group size. Only the leader calls it, exactly once, before it
// reserves the group's space.
func (ca *consArray) close(s *caslot) uint64 {
	for {
		w := s.word.Load()
		if s.word.CompareAndSwap(w, caPack(caClosed, caSize(w))) {
			return caSize(w)
		}
	}
}

// publish makes the group's base LSN visible to waiting members.
func (ca *consArray) publish(s *caslot, base uint64) {
	s.base.Store(base + 1)
}

// caPoisonBase is the published base marking a failed reservation: the
// leader could not reserve ring space (flusher death or close), so
// the group has no LSNs. Members must not copy, and every member
// still calls finish so the slot recycles.
const caPoisonBase = ^uint64(0)

// publishPoison releases waiting members with the poison marker.
func (ca *consArray) publishPoison(s *caslot) {
	s.base.Store(caPoisonBase)
}

// waitBase spins until the leader publishes the group base LSN,
// backing off to short sleeps when yields alone make no progress
// (relevant when goroutines far outnumber hardware contexts). ok is
// false when the leader published poison instead of a base.
func (ca *consArray) waitBase(s *caslot) (base uint64, ok bool) {
	for i := 0; ; i++ {
		if b := s.base.Load(); b != 0 {
			if b == caPoisonBase {
				return 0, false
			}
			return b - 1, true
		}
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// finish records that a member has copied n bytes. The member that
// completes the group recycles the slot and gets the group's ticket
// (last); in a poisoned group the ticket means nothing.
func (ca *consArray) finish(s *caslot, groupSize, n uint64) (ticket uint64, last bool) {
	if s.done.Add(n) != groupSize {
		return 0, false
	}
	ticket = s.ticket
	s.done.Store(0)
	s.base.Store(0)
	s.word.Store(caPack(caFree, 0))
	return ticket, true
}

// insertConsolidated is the CD insert path: consolidation array in
// front of a decoupled (copy outside any lock) buffer fill.
func (l *Log) insertConsolidated(rec []byte, stamp *atomic.Uint64, c *obs.PhaseClock) (LSN, error) {
	n := uint64(len(rec))
	s, offset, leader := l.ca.join(n, uint64(l.opts.BufferSize)/4)
	var base uint64
	var groupSize uint64
	if leader {
		groupSize = l.ca.close(s) // no more joiners past this point
		var err error
		base, s.ticket, err = l.reserve(groupSize, c)
		if err != nil {
			// The group got no ring space. Members are spinning in
			// waitBase: a plain return would leave them spinning
			// forever, so publish the poison marker, account for our
			// own share so the slot recycles, and surface the error.
			l.ca.publishPoison(s)
			l.ca.finish(s, groupSize, n)
			return 0, err
		}
		l.ca.publish(s, base)
	} else {
		l.stats.groupIns.Add(1)
		var ok bool
		if b := s.base.Load(); b != 0 {
			// Leader already published: no wait to attribute.
			base, ok = b-1, b != caPoisonBase
			if !ok {
				base = 0
			}
		} else if c != nil {
			// Group-member spin for the leader's base publication is
			// the consolidated path's insert wait; attribute it.
			t0 := obs.Now()
			base, ok = l.ca.waitBase(s)
			c.Add(obs.PhaseLogInsert, obs.Now()-t0)
		} else {
			base, ok = l.ca.waitBase(s)
		}
		// groupSize is only needed by finish for recycling; members
		// other than the leader learn it from the closed word.
		groupSize = caSize(s.word.Load())
		if !ok {
			l.ca.finish(s, groupSize, n)
			if err := l.poisoned(); err != nil {
				return 0, err
			}
			return 0, ErrClosed
		}
	}
	lsn := base + offset
	l.place(lsn, rec, stamp)
	// The member that closes the group completes its reservation: every
	// member stored its stamp before it added its bytes to done.
	if ticket, last := l.ca.finish(s, groupSize, n); last {
		l.filled(ticket, base+groupSize)
	}
	l.noteInsert(n)
	return LSN(lsn), nil
}
