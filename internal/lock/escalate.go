package lock

// Lock escalation (DESIGN.md, "The cache is hierarchical, and it
// grows upward when that is free"): when a request for the 64th, 128th,
// 256th… distinct row of a table reaches Holder.Acquire, the
// transaction tries to convert its intent lock on the table to the
// subtree mode the request needs — S for a read, X for a write. The
// conversion is refused while another transaction holds an
// incompatible lock on the table (a grant at the head, or a count on
// the intent word, which the attempt sets the head bit to judge),
// while anybody is queued there, or when the transaction holds no
// intent on the table. A refused transaction takes the row lock it
// came for: tryEscalate (Manager.request, refusing where others wait)
// never enqueues, sleeps or adds a waits-for edge, so it cannot close a
// cycle, as the blocking escalation it replaced did for two bulk
// writers by construction.

// tryEscalate converts h's own intent lock on table to the mode that
// covers row requests of rowMode, if no other grant or count conflicts
// and nobody waits. It reports whether the table lock now covers the
// row.
func (m *Manager) tryEscalate(h *Holder, table uint32, rowMode Mode) bool {
	want := S
	if rowMode == X {
		want = X
	}
	name := TableName(table)
	if h.Held(name) != None {
		if _, err := m.request(h, name, want, true); err == nil {
			m.stats.escalations.Add(1)
			return true
		}
	}
	m.stats.escalationRefusals.Add(1)
	return false
}
