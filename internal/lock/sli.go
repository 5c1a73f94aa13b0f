package lock

import (
	"sync/atomic"

	"hydra/internal/obs"
)

// Agent implements Speculative Lock Inheritance (SLI). In a storage
// manager, each worker thread executes a stream of transactions; SLI
// observes that consecutive transactions acquire the same compatible
// locks (the intent locks on the tables they touch) and lets the agent
// thread keep those locks across transaction boundaries instead of
// releasing and re-acquiring them through the contended lock table.
//
// An agent is a Holder that outlives the transactions it serves: each
// one takes its locks in the agent's name, so the agent owns every
// grant. At commit it releases rows and table S, SIX and X locks and
// keeps its table IS and IX entries, which the next transaction's
// requests find in the held set (Holder.covers) without a visit to the
// lock table. Every other rule follows from the owner's id: a request
// the kept IX conflicts with (a Scan's S) upgrades the agent's own
// grant, a transaction alone on a table escalates it, and waits-for
// edges name the agent, which runs one transaction at a time, with the
// serial of that transaction (Holder.gen).
//
// An Agent is not safe for concurrent use: it models one worker
// thread. Its kept locks are real grants, so conflicting requests from
// other threads still queue; one that queues on a table the agent
// holds sets the agent's reclaim flag, and at its next boundary the
// agent releases everything (lock reclaim).
type Agent struct {
	h       *Holder
	reclaim atomic.Bool // set by a waiter on a table the agent holds
}

// agentIDBase separates agent ids from transaction ids.
const agentIDBase = uint64(1) << 62

var agentSeq atomic.Uint64

// NewAgent registers a new SLI agent with the manager.
func (m *Manager) NewAgent() *Agent {
	a := &Agent{h: m.NewHolder(agentIDBase + agentSeq.Add(1))}
	m.agents.Store(a.h.id, a)
	return a
}

// Begin starts the agent's next transaction, whose lock-wait time goes
// to c (nil: nowhere). A reclaim flagged since the last boundary
// releases the kept locks first.
func (a *Agent) Begin(c *obs.PhaseClock) {
	a.h.gen.Add(1) // before the flag is read: see Manager.holderNode
	a.h.dep = 0
	if a.reclaim.Swap(false) {
		a.h.ReleaseAll()
	}
	a.h.SetClock(c)
}

// Dep returns what the running transaction's reads may depend on
// (Holder.Dep).
func (a *Agent) Dep() uint64 { return a.h.dep }

// Acquire obtains name in mode for the running transaction, in the
// agent's name; Holder.Acquire states the blocking and error contract.
func (a *Agent) Acquire(name Name, mode Mode) error { return a.h.Acquire(name, mode) }

// Commit ends the running transaction, whose durability target under
// early lock release is mark (Holder.ReleaseCommitted; 0 otherwise): it
// releases everything but the table IS and IX entries, which stay
// without touching the table, or everything if a reclaim is flagged. A
// kept count cannot be named to flag a reclaim (Manager.holderNode), so
// one whose table's head bit is set — someone there drains the counts —
// goes too.
func (a *Agent) Commit(mark uint64) {
	h := a.h
	if a.reclaim.Swap(false) {
		h.ReleaseCommitted(mark)
		return
	}
	h.m.stats.releaseAll.Add(1)
	names, modes := h.take()
	for i, name := range names {
		mode := modes[i]
		if md := mode &^ counted; name.Level == LevelTable && (md == IS || md == IX) &&
			(mode == md || h.m.word(name).Load()&headBit == 0) {
			h.held[name] = mode
			continue
		}
		h.release(name, mode, mark)
	}
}

// Abort ends the running transaction and releases everything: an
// aborted transaction's locks are not speculation-worthy.
func (a *Agent) Abort() {
	a.reclaim.Store(false)
	a.h.ReleaseAll()
}

// ReleaseInherited returns the kept locks to the table. Call it
// between transactions.
func (a *Agent) ReleaseInherited() { a.h.ReleaseAll() }

// Close releases the kept locks and unregisters the agent.
func (a *Agent) Close() {
	a.ReleaseInherited()
	a.h.m.agents.Delete(a.h.id)
}
