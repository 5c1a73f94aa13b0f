package lock

import (
	"sync"

	"hydra/internal/obs"
)

// Holder is a transaction's private lock context: the set of locks it
// holds and its escalation state, carried by the transaction itself
// instead of living in a manager-global map. A transaction has
// exclusive use of its own lock set, so holder updates never contend
// with other transactions — the holder mutex below is only ever
// uncontended (it exists so the id-based compatibility API, which
// hands holders out from a registry, stays race-free under misuse).
//
// The held set is also the transaction's lock cache: a request its own
// set already covers is answered from it (covers) and never reaches
// the lock table — within one transaction what SLI's agent cache does
// across transactions.
//
// Engine transactions create one holder per worker context and Reset
// it between transactions, so steady-state acquisition performs no
// map allocation and touches no manager-global synchronization.
type Holder struct {
	m  *Manager
	id uint64

	// clock, when set, receives the transaction's lock-wait time:
	// the manager's blocking path already measures the wait for its
	// own histogram, so phase attribution costs zero extra clock
	// reads. Written only between transactions (SetClock), read on
	// the owning transaction's wait path.
	clock *obs.PhaseClock

	mu   sync.Mutex
	held map[Name]Mode
	esc  escalationState
	// names and modes are take's scratch: the released set, valid until
	// the holder's next take or Reset.
	names []Name
	modes []Mode
}

// NewHolder returns a lock context for the given transaction id. The
// holder is bound to m for its lifetime; use Reset to recycle it for
// a new transaction.
func (m *Manager) NewHolder(txn uint64) *Holder {
	return &Holder{m: m, id: txn, held: make(map[Name]Mode)}
}

// holderRetainCap bounds how large a held map may have grown and
// still be recycled. Go's clear(map) walks the map's full capacity —
// which never shrinks — so after one huge transaction (a bulk load,
// say) a recycled map would pay that transaction's footprint on every
// later clear. Past the bound we drop the map and start small.
const holderRetainCap = 64

func resetLockMap(m map[Name]Mode) map[Name]Mode {
	if len(m) > holderRetainCap {
		return make(map[Name]Mode)
	}
	clear(m)
	return m
}

// Reset recycles the holder for a new transaction. The caller must
// have released all locks of the previous transaction first.
func (h *Holder) Reset(txn uint64) {
	h.mu.Lock()
	h.id = txn
	h.held = resetLockMap(h.held)
	h.esc.clear()
	if cap(h.names) > holderRetainCap {
		h.names, h.modes = nil, nil
	}
	h.mu.Unlock()
}

// ID returns the transaction id the holder currently represents.
func (h *Holder) ID() uint64 { return h.id }

// SetClock attaches (or detaches, with nil) the phase clock that
// receives this holder's lock-wait time. Call it between
// transactions, alongside Reset.
func (h *Holder) SetClock(c *obs.PhaseClock) { h.clock = c }

// Acquire obtains name in mode for the holder's transaction; see
// Manager.Acquire for the blocking and error contract.
func (h *Holder) Acquire(name Name, mode Mode) error {
	m := h.m
	m.stats.acquires.Add(1)
	if h.covers(name, mode) {
		return nil
	}
	if handled, err := m.maybeEscalate(h, name, mode); handled {
		return err
	}
	return m.acquireTable(h, name, mode)
}

// Release drops the holder's lock on name entirely (all re-entrant
// counts).
func (h *Holder) Release(name Name) {
	h.m.releaseOne(h.id, name)
	h.mu.Lock()
	delete(h.held, name)
	h.mu.Unlock()
}

// ReleaseAll drops every lock the holder has (2PL release phase) and
// returns the names released, in the holder's scratch: the slice is
// valid until the holder is next used.
func (h *Holder) ReleaseAll() []Name {
	h.m.stats.releaseAll.Add(1)
	names, _ := h.take()
	for _, name := range names {
		h.m.releaseOne(h.id, name)
	}
	return names
}

// Held returns the mode the holder has on name (None if not held).
func (h *Holder) Held(name Name) Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held[name]
}

// covers reports whether the transaction already holds name in a mode
// at least as strong as mode. Such a request changes nothing at the
// lock table (the grant stays what it is, nobody is woken or blocked),
// so the acquire paths answer it here: before escalation counting,
// before the partition mutex, before the heat table. lock.acquires
// counts it as a request all the same; lock.table_ops does not.
func (h *Holder) covers(name Name, mode Mode) bool {
	h.mu.Lock()
	held := h.held[name]
	h.mu.Unlock()
	return held != None && Supremum(held, mode) == held
}

// holdsNothing reports whether the transaction is still at its
// beginning as far as locks go.
func (h *Holder) holdsNothing() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held) == 0
}

// note records a granted (or upgraded) lock.
func (h *Holder) note(name Name, mode Mode) {
	h.mu.Lock()
	h.held[name] = mode
	h.mu.Unlock()
}

// take detaches and returns the held set, clearing the holder's
// bookkeeping (including escalation state) while keeping its maps
// allocated for reuse. The set comes back in the holder's scratch
// slices — no allocation per release; callers finish with them before
// the holder is used again. The nil, nil return for an empty set
// preserves ReleaseAll's "nothing held" contract.
func (h *Holder) take() ([]Name, []Mode) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.esc.clear()
	if len(h.held) == 0 {
		return nil, nil
	}
	h.names, h.modes = h.names[:0], h.modes[:0]
	for n, md := range h.held {
		h.names = append(h.names, n)
		h.modes = append(h.modes, md)
	}
	h.held = resetLockMap(h.held)
	return h.names, h.modes
}

// holderOf returns the registry-backed holder for txn, creating it on
// first use. It serves the id-based compatibility API; engine code
// carries holders directly and never touches the registry.
func (m *Manager) holderOf(txn uint64) *Holder {
	s := &m.reg[regIdx(txn)]
	s.mu.Lock()
	h := s.m[txn]
	if h == nil {
		h = m.NewHolder(txn)
		s.m[txn] = h
	}
	s.mu.Unlock()
	return h
}

// lookupHolder returns txn's registry holder or nil.
func (m *Manager) lookupHolder(txn uint64) *Holder {
	s := &m.reg[regIdx(txn)]
	s.mu.Lock()
	h := s.m[txn]
	s.mu.Unlock()
	return h
}

// takeHolder removes and returns txn's registry holder, or nil.
func (m *Manager) takeHolder(txn uint64) *Holder {
	s := &m.reg[regIdx(txn)]
	s.mu.Lock()
	h := s.m[txn]
	if h != nil {
		delete(s.m, txn)
	}
	s.mu.Unlock()
	return h
}
