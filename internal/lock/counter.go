package lock

// A table's intent locks as a counter (DESIGN.md, "A table's intent
// locks are a counter"). Under more than one partition a table's IS
// and IX are counts on its intent word, one CAS each way while the
// word's head bit is clear. S, SIX and X set the bit under the
// partition mutex, so no count is taken after it, and the head judges
// them against the counts less the requester's own (lockHead.admits);
// while the bit is set IS and IX are head grants too. Counts have no
// names, so a waiter they block is anonymous and the deadlock rule for
// it is conservative (Manager.cycle).

import "sync/atomic"

// The intent word: IS count in bits 0–31, IX count in bits 32–62, the
// head bit on top.
const (
	countIS uint64 = 1
	countIX uint64 = 1 << 32
	headBit uint64 = 1 << 63

	isMask = countIX - 1
	ixMask = (headBit - 1) &^ isMask
)

// countOf is the word increment of an intent mode.
func countOf(mode Mode) uint64 {
	if mode == IX {
		return countIX
	}
	return countIS
}

// countsAdmit reports whether the counts on word w, less own's count
// (None: the requester holds none), are compatible with mode.
func countsAdmit(w uint64, own, mode Mode) bool {
	if own != None {
		w -= countOf(own)
	}
	return (w&isMask == 0 || Compatible(IS, mode)) && (w&ixMask == 0 || Compatible(IX, mode))
}

// countedTables is how many table ids have an intent word under the
// scalable manager (32 KiB of words); a table past them takes its
// intents at the head, as under one partition.
const countedTables = 4096

// word returns name's intent word: nil for a row, under one partition,
// or for a table past countedTables.
func (m *Manager) word(name Name) *atomic.Uint64 {
	if name.Level != LevelTable || int(name.Table) >= len(m.words) {
		return nil
	}
	return &m.words[name.Table]
}

// count takes a table intent as a count on the table's word, if the
// table has one, the transaction holds it by nothing but a count, the
// request's supremum is IS or IX and the head bit is clear; an IS→IX
// upgrade moves its one count. It reports whether it did.
func (m *Manager) count(h *Holder, name Name, mode Mode) bool {
	word := m.word(name)
	if word == nil {
		return false
	}
	held, own := h.heldAt(name)
	if held != own {
		return false // a grant at the head
	}
	target := Supremum(held, mode)
	if target != IS && target != IX {
		return false
	}
	for w := word.Load(); w&headBit == 0; w = word.Load() {
		next := w + countOf(target)
		if own != None {
			next -= countOf(own)
		}
		if word.CompareAndSwap(w, next) {
			m.stats.intentCounts.Inc()
			h.note(name, target|counted)
			return true
		}
		m.stats.casRetries.Inc()
	}
	return false
}

// uncount drops a counted intent, and settles the head if the head
// bit is set: a waiter there may be draining the counts.
func (m *Manager) uncount(name Name, mode Mode) {
	c := countOf(mode)
	if (m.word(name).Add(-c)+c)&headBit == 0 {
		return
	}
	p := m.part(name)
	p.mu.Lock()
	if lh := p.table[name]; lh != nil {
		m.settleLocked(p, name, lh)
	}
	p.mu.Unlock()
}
