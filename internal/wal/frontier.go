package wal

import "sync/atomic"

// frontierMarks is the number of done marks in a frontier's ring, a
// power of two read when a log is made; a variable so a test can
// shrink it.
var frontierMarks = 4096

// frontier tracks the contiguously-filled prefix of the log buffer
// when records are copied in out of order (decoupled buffer fill), and
// takes no lock. Each reservation of log space takes the next ticket
// with its LSN range (Log.reserve), counted modulo tmask+1, twice the
// marks; its completion publishes a done mark in the ticket's ring
// slot. Filled() is the highest LSN below which every byte has been
// copied.
type frontier struct {
	filled atomic.Uint64
	head   atomic.Uint64 // the lowest ticket not yet folded into filled, not reduced
	marks  []mark
	mask   uint64 // len(marks) - 1
	tmask  uint64 // 2 × len(marks) - 1: tickets compare modulo tmask+1
	reach  uint64 // the bytes past filled within which a ticket is exact; see full
}

// mark is ticket t's done mark: ticket holds t+1 (t modulo tmask+1)
// once end, where t's reservation ends, is stored. The slot at head
// holds head's own mark or the one of the ticket a ring before it,
// which differs modulo tmask+1.
type mark struct{ ticket, end atomic.Uint64 }

// newFrontier returns a frontier filled up to at, next ticket 0.
func newFrontier(at uint64) *frontier {
	n := uint64(frontierMarks)
	f := &frontier{marks: make([]mark, n), mask: n - 1, tmask: 2*n - 1, reach: 2 * n * headerSize}
	f.filled.Store(at)
	return f
}

// full reports whether ticket t, whose reservation starts at lsn, would
// lap the ring: its slot still belongs to a ticket head has not passed.
// A ticket modulo 2 × len(marks) tells how far it is past head only
// within that many tickets, and any number of them may be issued ahead
// of head. But every reservation is at least a record header, filled
// never passes the start of head's, and t has not completed: so a
// ticket starting less than reach bytes past filled is less than
// 2 × len(marks) tickets past head. One further out waits as if full.
func (f *frontier) full(t, lsn uint64) bool {
	filled := f.filled.Load() // before head, which only rises
	return lsn-filled >= f.reach || (t-f.head.Load())&f.tmask >= uint64(len(f.marks))
}

// complete marks ticket t, whose reservation ends at end, done. Then,
// while the mark at head is present, it moves head past it and raises
// filled to its end; a completion that finds head's mark absent leaves
// its own for whoever closes the gap. It reports whether it folded
// another reservation's mark.
//
// What the writer stored before complete (its stamp) is visible to
// whoever loads a Filled() past its record: filled is raised only after
// the mark is read.
func (f *frontier) complete(t, end uint64) (others bool) {
	m := &f.marks[t&f.mask]
	m.end.Store(end)
	m.ticket.Store(t + 1)
	for {
		h := f.head.Load()
		m := &f.marks[h&f.mask]
		if m.ticket.Load() != h&f.tmask+1 {
			return others
		}
		// While head is h, ticket h+len(marks) waits in full: the end is
		// still h's.
		e := m.end.Load()
		if !f.head.CompareAndSwap(h, h+1) {
			continue
		}
		// Advancers race: filled is a max.
		for cur := f.filled.Load(); cur < e && !f.filled.CompareAndSwap(cur, e); cur = f.filled.Load() {
		}
		others = others || h&f.tmask != t
	}
}

// Filled returns the contiguously-filled LSN frontier.
func (f *frontier) Filled() uint64 { return f.filled.Load() }
