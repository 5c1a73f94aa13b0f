package lock

// Lock escalation: a transaction that has taken many row locks on one
// table trades the rest for a single table lock — when that costs
// nobody anything. Concurrency-control work that resolves no conflict
// is pure overhead on the critical path, so a transaction alone on a
// table decides once, not once per record; a transaction that is not
// alone keeps its row locks and the concurrency they buy.
//
// The rule: when a request for the 64th, 128th, 256th… distinct row of
// a table reaches Holder.Acquire (holderRetainCap, the size past which
// the holder already treats a transaction as huge, and then each
// doubling), the transaction tries to convert the intent lock it holds
// on the table to the subtree mode the request needs — S for a read, X
// for a write. The conversion is refused when
//
//   - another grant on the table is incompatible with the target (a
//     second transaction's IS or IX, another SLI agent's kept intent
//     lock),
//   - anybody is queued on the table, or
//   - the transaction holds no grant on the table (it never asked).
//
// A transaction an SLI agent serves takes its locks in the agent's
// name, so the agent's kept intent lock is its own grant to convert.
//
// A refused transaction takes the row lock it came for. tryEscalate
// never enqueues, never sleeps and never adds a waits-for edge, so it
// cannot close a cycle: the blocking escalation it replaces turned two
// bulk writers, each holding IX and asking for X, into a conversion
// deadlock by construction. What it does change is visibility: the
// table lock is held to the end of the transaction like any other, so
// a transaction that found a table idle at its 64th row keeps others
// off it until it commits, and one that read-escalated to S pays a
// real (waiting) S-to-SIX conversion if it later writes there.

// tryEscalate converts h's own intent lock on table to the mode that
// covers row requests of rowMode, if no other grant conflicts and
// nobody waits. It reports whether the table lock now covers the row.
func (m *Manager) tryEscalate(h *Holder, table uint32, rowMode Mode) bool {
	want := S
	if rowMode == X {
		want = X
	}
	name := TableName(table)
	m.stats.tableOps.Inc()
	p := m.part(name)
	p.mu.Lock()
	if lh := p.table[name]; lh != nil && len(lh.queue) == 0 {
		if held, own := lh.granted[h.id]; own {
			if target := Supremum(held, want); lh.compatibleExcept(target, h.id) {
				lh.granted[h.id] = target
				p.mu.Unlock()
				h.note(name, target)
				m.stats.escalations.Add(1)
				return true
			}
		}
	}
	p.mu.Unlock()
	m.stats.escalationRefusals.Add(1)
	return false
}
