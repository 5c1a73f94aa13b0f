package lock

import (
	"sync/atomic"
)

// Agent implements Speculative Lock Inheritance (SLI). In a storage
// manager, each worker thread executes a stream of transactions; SLI
// observes that consecutive transactions acquire the same hot,
// compatible locks (typically intent locks on tables and the
// database) and lets the agent thread keep those locks across
// transaction boundaries instead of releasing and re-acquiring them
// through the contended lock table.
//
// An Agent is not safe for concurrent use: it models one worker
// thread. The underlying Manager remains fully thread-safe, and the
// locks an agent retains are real table grants held by the agent's
// pseudo-transaction, so conflicting requests from other threads
// still queue correctly; the agent checks for such waiters at every
// transaction boundary and releases contested locks (lock reclaim).
type Agent struct {
	m  *Manager
	id uint64 // pseudo-transaction id owning retained grants

	h       *Holder       // lock context of the pseudo-transaction
	cache   map[Name]Mode // retained locks: name -> mode held by a.id
	reclaim *atomic.Bool  // set by the manager when someone waits on us
}

// agentIDBase separates agent pseudo-transactions from real ones.
const agentIDBase = uint64(1) << 62

var agentSeq atomic.Uint64

// NewAgent registers a new SLI agent with the manager.
func (m *Manager) NewAgent() *Agent {
	a := &Agent{
		m:       m,
		id:      agentIDBase + agentSeq.Add(1),
		cache:   make(map[Name]Mode),
		reclaim: new(atomic.Bool),
	}
	a.h = m.NewHolder(a.id)
	m.agents.Store(a.id, a.reclaim)
	return a
}

// Acquire obtains name in mode for the transaction owning h,
// satisfying the request from the agent's inherited locks when
// possible; Holder.Acquire states the blocking and error contract. A
// cache-satisfied acquire is still noted in h's held set — the
// transaction logically holds the lock even though the table grant
// belongs to the agent's pseudo-transaction — so Holder.Held and the
// engine agree on what the transaction may touch. At the transaction
// boundary OnCommit sees the name, finds it already retained
// (shouldInherit declines re-inheritance) and releases it for h.id,
// which is a no-op at the table: the agent's grant is untouched.
//
// A request an inherited grant conflicts with — a Scan's table S after
// a write under the agent's IX — takes that grant over first: the
// agent never waits, so a transaction queued behind its own agent
// would wait forever. The request then upgrades the transaction's own
// grant, and waits only for other owners.
func (a *Agent) Acquire(h *Holder, name Name, mode Mode) error {
	a.m.stats.acquires.Add(1)
	// No escalation attempt here: the transaction's table lock may be
	// the agent's grant, not its own.
	if covered, _ := h.covers(name, mode); covered {
		return nil
	}
	// Surrender contested locks only at a boundary: once the
	// transaction holds anything it may hold it through this cache
	// alone (and, covered, never ask again), so a reclaim now would
	// pull the grant from under it.
	if len(h.held) == 0 {
		a.checkReclaim()
	}
	if held, ok := a.cache[name]; ok {
		if Supremum(held, mode) == held && (mode == IS || mode == IX) {
			// Covered by an inherited grant: no table visit at all.
			a.m.stats.inherited.Add(1)
			h.note(name, mode)
			return nil
		}
		if !Compatible(held, mode) && a.m.transfer(a.id, h.id, name) {
			delete(a.cache, name)
			a.h.forget(name)
			h.note(name, Supremum(h.held[name], held))
		}
	}
	return a.m.acquireTable(h, name, mode)
}

// OnCommit performs the transaction-boundary work: it releases the
// locks of the transaction owning h, inheriting the hot intent locks
// into the agent instead of returning them to the table.
func (a *Agent) OnCommit(h *Holder) {
	a.checkReclaim()
	a.m.stats.releaseAll.Add(1)
	names, modes := h.take()
	for i, name := range names {
		mode := modes[i]
		if a.shouldInherit(name, mode) && a.m.transfer(h.id, a.id, name) {
			a.cache[name] = mode
			a.h.note(name, mode)
			continue
		}
		a.m.releaseOne(h.id, name)
	}
}

// OnAbort releases everything without inheritance (an aborted
// transaction's locks are not speculation-worthy).
func (a *Agent) OnAbort(h *Holder) {
	h.ReleaseAll()
	a.checkReclaim()
}

// shouldInherit applies the SLI policy: only intent modes above row
// level, only on locks whose observed contention crosses the
// threshold, and only if not already retained.
func (a *Agent) shouldInherit(name Name, mode Mode) bool {
	if name.Level == LevelRow {
		return false
	}
	if mode != IS && mode != IX {
		return false
	}
	if _, already := a.cache[name]; already {
		return false
	}
	return a.m.contentionOf(name) >= a.m.opts.HotThreshold
}

// checkReclaim releases every retained lock if any other transaction
// was observed waiting on this agent.
func (a *Agent) checkReclaim() {
	if !a.reclaim.Swap(false) {
		return
	}
	a.ReleaseInherited()
}

// ReleaseInherited returns all retained locks to the table.
func (a *Agent) ReleaseInherited() {
	if len(a.cache) == 0 {
		return
	}
	a.h.ReleaseAll()
	clear(a.cache)
}

// Close releases retained locks and unregisters the agent.
func (a *Agent) Close() {
	a.ReleaseInherited()
	a.m.agents.Delete(a.id)
}

// InheritedCount reports how many locks the agent currently retains.
func (a *Agent) InheritedCount() int { return len(a.cache) }

// transfer moves from's grant on name to to without releasing it: a
// transaction's to its agent at a boundary, or an agent's back to the
// transaction it serves. It reports success; failure (grant vanished)
// leaves the caller to release normally. A failure that finds the head
// already empty reclaims it like releaseOne would, so a stale head
// cannot linger in the table.
func (m *Manager) transfer(from, to uint64, name Name) bool {
	p := m.part(name)
	p.mu.Lock()
	lh := p.table[name]
	if lh == nil {
		p.mu.Unlock()
		return false
	}
	mode, ok := lh.granted[from]
	if !ok {
		retired := reclaimHeadLocked(p, name, lh)
		p.mu.Unlock()
		if retired != nil {
			m.retireHead(p, retired)
		}
		return false
	}
	delete(lh.granted, from)
	lh.granted[to] = Supremum(lh.granted[to], mode)
	p.mu.Unlock()
	return true
}
