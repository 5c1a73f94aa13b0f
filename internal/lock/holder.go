package lock

import "hydra/internal/obs"

// Holder is a transaction's private lock context: the set of locks it
// holds and the row counts escalation goes by, carried by the
// transaction itself instead of living in a manager-global map.
//
// A holder has one owner and no mutex, and lives exactly as long as its
// transaction. Only the goroutine running that transaction touches it —
// its Acquire and release, and the manager's wait and escalation paths
// acting on that same call. Handing a holder to another goroutine (a
// pooled core.Txn, the DORA coordinator finishing what an executor
// began) goes through a synchronising hand-off. Other transactions
// never reach it: what they share is the lock table, which has its own
// partition mutexes.
//
// The held set is also the transaction's lock cache, and it is
// hierarchical: a request its own set already covers — the name itself,
// or for a row the table above it — is answered from it (covers) and
// never reaches the lock table. A table intent the manager took as a
// count (counter.go) is in the set like a grant, flagged counted.
//
// Engine transactions create one holder per worker context and Reset
// it between transactions, so steady-state acquisition performs no
// map allocation and touches no manager-global synchronization.
type Holder struct {
	m   *Manager
	id  uint64
	dep uint64 // see Dep

	// clock, when set, receives the transaction's lock-wait time:
	// the manager's blocking path already measures the wait for its
	// own histogram, so phase attribution costs zero extra clock
	// reads. Written only between transactions (SetClock), read on
	// the owning transaction's wait path.
	clock *obs.PhaseClock

	held map[Name]Mode
	// rows counts, per table, the distinct rows the transaction has
	// asked the lock table for: what escalation goes by (escalate.go).
	rows map[uint32]int
	// tab and tabMode remember the table lock last looked up or granted
	// (tabMode None: nothing remembered). The engine asks for a row's
	// table and then the row, so the second question finds the first
	// one's answer here and not in the map (tableMode).
	tab     uint32
	tabMode Mode
	// big records that the previous transaction's set reached
	// holderRetainCap (see take).
	big bool
	// names and modes are take's scratch: the released set, valid until
	// the holder's next take or Reset.
	names []Name
	modes []Mode
}

// NewHolder returns a lock context for the given transaction id. The
// holder is bound to m for its lifetime; use Reset to recycle it for
// a new transaction.
func (m *Manager) NewHolder(txn uint64) *Holder {
	return &Holder{m: m, id: txn, held: make(map[Name]Mode), rows: make(map[uint32]int)}
}

// holderRetainCap is the size at which a transaction counts as huge:
// the number of rows of one table at which it first tries to escalate
// (escalate.go), and the size of lock set that take does not hand on
// to a small successor.
const holderRetainCap = 64

// Reset recycles the holder for a new transaction. The caller must
// have released all locks of the previous transaction first.
func (h *Holder) Reset(txn uint64) {
	h.id = txn
	h.dep = 0
	clear(h.held)
	clear(h.rows)
	h.tabMode = None
}

// SetClock attaches (or detaches, with nil) the phase clock that
// receives this holder's lock-wait time. Call it between
// transactions, alongside Reset.
func (h *Holder) SetClock(c *obs.PhaseClock) { h.clock = c }

// Acquire obtains name in mode for the holder's transaction, blocking
// while incompatible locks are held. Re-acquisition upgrades to the
// supremum mode. It returns ErrDeadlock when the wait would close a
// cycle (the requester is the victim) and ErrTimeout past the
// manager's WaitTimeout; either way the transaction must abort and
// release everything it holds.
func (h *Holder) Acquire(name Name, mode Mode) error {
	w, err := h.try(name, mode)
	if w == nil {
		return err
	}
	return h.m.wait(h, name, w)
}

// try is Acquire up to its wait, and never blocks: it answers the
// request from the holder's set, by escalation, by a count or at the
// lock table, refuses it as the deadlock victim, or returns the waiter
// it queued, for which Acquire waits.
func (h *Holder) try(name Name, mode Mode) (*waiter, error) {
	m := h.m
	m.stats.acquires.Add(1)
	covered, esc := h.covers(name, mode)
	if covered || esc && m.tryEscalate(h, name.Table, mode) {
		return nil, nil
	}
	if name.Level == LevelTable && m.count(h, name, mode) {
		return nil, nil
	}
	return m.request(h, name, mode, false)
}

// ReleaseAll drops every lock the holder has (2PL release phase) and
// returns the names released, in the holder's scratch: the slice is
// valid until the holder is next used.
func (h *Holder) ReleaseAll() []Name { return h.ReleaseCommitted(0) }

// ReleaseCommitted is ReleaseAll under early lock release, mark being
// the commit's durability target: it first raises a row X's partition
// mark to it, and for a table SIX or X every partition's, so a later
// reader of what this transaction wrote notes it with its grant (Dep).
func (h *Holder) ReleaseCommitted(mark uint64) []Name {
	m := h.m
	m.stats.releaseAll.Add(1)
	names, modes := h.take()
	for i, name := range names {
		mode := modes[i]
		if mode&counted != 0 {
			m.uncount(name, mode&^counted)
			continue
		}
		if mark != 0 && (mode == X || mode == SIX) {
			ps := m.covered(name)
			for j := range ps {
				for cur := ps[j].mark.Load(); cur < mark && !ps[j].mark.CompareAndSwap(cur, mark); cur = ps[j].mark.Load() {
				}
			}
		}
		m.releaseOne(h.id, name)
	}
	return names
}

// Dep returns the highest partition mark the transaction's grants
// found: the durability target its reads may depend on (0: none).
func (h *Holder) Dep() uint64 { return h.dep }

// Held returns the mode the holder has on name (None if not held).
func (h *Holder) Held(name Name) Mode { return h.held[name] &^ counted }

// heldAt returns the mode the holder has on name and, if it holds it
// by a count on the table's word, that mode again as own (else None).
func (h *Holder) heldAt(name Name) (held, own Mode) {
	if held = h.held[name]; held&counted != 0 {
		return held &^ counted, held &^ counted
	}
	return held, None
}

// counts reports whether the holder holds a table intent as a count.
func (h *Holder) counts() bool {
	for _, md := range h.held {
		if md&counted != 0 {
			return true
		}
	}
	return false
}

// covers reports whether the transaction's own set answers a request
// for name in mode: it holds name at least that strongly, or name is a
// row and it holds the row's table in a mode that subsumes the request
// (X any row mode; S and SIX a read) — however the table lock was come
// by. Such a request changes nothing at the lock table (the grant stays
// what it is, nobody is woken or blocked), so the acquire paths answer
// it here, before the partition mutex.
// lock.acquires counts it as a request all the same; lock.table_ops
// does not.
//
// A row the set neither answers nor holds in any mode is counted, and
// try reports that it is its table's 64th, 128th, 256th…: the points
// at which Holder.Acquire tries to escalate. Counted are rows, not
// requests: a row asked for again, or read and then written, is one.
func (h *Holder) covers(name Name, mode Mode) (covered, try bool) {
	var held Mode
	switch name.Level {
	case LevelRow:
		// S < SIX < X are the modes that lock the subtree.
		if t := h.tableMode(name.Table); t == X || t >= S && (mode == S || mode == IS) {
			h.m.stats.escalatedAcqs.Add(1)
			return true, false
		}
		held = h.held[name]
	case LevelTable:
		held = h.tableMode(name.Table)
	default:
		held = h.held[name]
	}
	if held != None {
		// Not covered means a stronger mode of a lock already counted.
		return Supremum(held, mode) == held, false
	}
	if name.Level != LevelRow {
		return false, false
	}
	n := h.rows[name.Table] + 1
	h.rows[name.Table] = n
	return false, n >= holderRetainCap && n&(n-1) == 0
}

// tableMode returns the mode held on table (None if not held), from
// the holder's memory of the last table when that is the one asked
// about.
func (h *Holder) tableMode(table uint32) Mode {
	if h.tabMode == None || h.tab != table {
		h.tab, h.tabMode = table, h.held[TableName(table)]&^counted
	}
	return h.tabMode
}

// counted flags, in the held set, a table intent held as a count on
// the table's word instead of a grant at its head.
const counted Mode = 1 << 3

// note records a granted (or upgraded) lock, or with counted set a
// counted one, and the marks of the partitions whose rows a grant lets
// the transaction read: a row's, or for a table S, SIX or X every one.
func (h *Holder) note(name Name, mode Mode) {
	h.held[name] = mode
	mode &^= counted
	if name.Level == LevelTable {
		h.tab, h.tabMode = name.Table, mode
	}
	if name.Level == LevelRow || mode >= S {
		ps := h.m.covered(name)
		for i := range ps {
			h.dep = max(h.dep, ps[i].mark.Load())
		}
	}
}

// take detaches and returns the held set, clearing the holder's
// bookkeeping while keeping its maps allocated for reuse. The set comes
// back in the holder's scratch slices — no allocation per release;
// callers finish with them before the holder is used again. The nil,
// nil return for an empty set preserves ReleaseAll's "nothing held"
// contract.
//
// Go's clear(map) walks the map's full capacity, which never shrinks,
// so a map one huge transaction grew would cost every later small one
// that footprint. A huge transaction pays for its own size and hands
// the map to the next (a stream of contested bulk writers does not
// regrow it batch after batch); the first small transaction to follow
// drops map and scratch and starts small again.
func (h *Holder) take() ([]Name, []Mode) {
	clear(h.rows)
	h.tabMode = None
	if len(h.held) == 0 {
		return nil, nil
	}
	big := len(h.held) >= holderRetainCap
	shrink := h.big && !big
	h.big = big
	if shrink {
		h.names, h.modes = nil, nil
	}
	h.names, h.modes = h.names[:0], h.modes[:0]
	for n, md := range h.held {
		h.names = append(h.names, n)
		h.modes = append(h.modes, md)
	}
	if shrink {
		h.held = make(map[Name]Mode)
	} else {
		clear(h.held)
	}
	return h.names, h.modes
}
