package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/hist"
	"hydra/internal/invariant"
	"hydra/internal/obs"
)

// Errors returned by Acquire.
var (
	// ErrDeadlock aborts the requester chosen as deadlock victim.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrTimeout aborts a request that waited past the configured bound.
	ErrTimeout = errors.New("lock: wait timed out")
	errRefused = errors.New("lock: escalation refused")
)

// Options configures a Manager.
type Options struct {
	// Partitions shards the lock table; 1 reproduces the conventional
	// centralized design. Default 1.
	Partitions int
	// WaitTimeout bounds any single lock wait; 0 means no timeout
	// (deadlock detection alone breaks cycles). Default 0.
	WaitTimeout time.Duration
}

// Stats are cumulative lock-manager counters. Each field's tags are the
// metric's one definition: every surface (/stats, /metrics, STATS FULL,
// hydra-cli, hydra-top) derives from them (DESIGN.md §7).
type Stats struct {
	Acquires   uint64 `json:"acquires"`  // logical acquisitions requested
	TableOps   uint64 `json:"table_ops"` // acquisitions that reached the lock table
	Waits      uint64 `json:"waits"`     // acquisitions not granted at once (victims too)
	Deadlocks  uint64 `json:"deadlocks"`
	Timeouts   uint64 `json:"timeouts"`
	Upgrades   uint64 `json:"upgrades"`
	ReleaseAll uint64 `json:"release_all"`
	// Escalations counts row->table lock escalations, EscalationRefusals
	// the attempts a busy table refused; EscalatedAcqs counts row
	// requests answered by a table lock the transaction holds.
	Escalations        uint64 `json:"escalations"`
	EscalationRefusals uint64 `json:"escalation_refusals"`
	EscalatedAcqs      uint64 `json:"escalated_acquires"`
	// Lock-head lifecycle: HeadAllocs counts fresh lockHead
	// allocations on table misses, HeadRecycles misses served from the
	// partition freelist instead, HeadRetires empty heads returned to
	// it.
	HeadAllocs   uint64 `json:"head_allocs"`
	HeadRecycles uint64 `json:"head_recycles"`
	HeadRetires  uint64 `json:"head_retires"`
	// Bypasses counts logical acquisitions the MVCC snapshot-read path
	// skipped entirely: reads that, on the locked path, would have gone
	// through Acquire but instead resolved against version chains.
	Bypasses uint64 `json:"bypasses"`
	// IntentCounts counts table IS and IX locks taken as a count on
	// the table's intent word (counter.go), IntentCASRetries the CAS
	// attempts on one that lost: its contention signal.
	IntentCounts     uint64 `json:"intent_counts"`
	IntentCASRetries uint64 `json:"intent_cas_retries"`
}

type waiter struct {
	txn  uint64
	mode Mode // what it is granted: the supremum with what it holds
	own  Mode // the intent it holds as a count, which moves into its grant
	anon bool // counts blocked it at enqueue (cycle)
	// since is the obs.Now() stamp at enqueue; the stall flight
	// recorder scans it to find waiters older than its threshold.
	since int64
	// on lists the transactions w waits for: its waits-for edges, in
	// its stripe of the graph while it waits. Set before it is
	// published there, never changed after.
	on    []uint64
	ready chan struct{}
}

type lockHead struct {
	// granted maps a transaction to the mode it holds, by value: a
	// grant costs no allocation once the (recycled) head's map has room.
	granted map[uint64]Mode
	queue   []*waiter
	word    *atomic.Uint64 // the table's intent word (nil: none), see admits
}

type partition struct {
	mu    invariant.Mutex[invariant.LockPart]
	table map[Name]*lockHead
	spare []*lockHead // retired heads, for the partition's next misses
	// mark is the highest durability target of a lock released here
	// early (Holder.ReleaseCommitted), which a grant notes.
	mark atomic.Uint64
	_    [16]byte // pad to a cache line so adjacent partitions don't false-share
}

// takeHeadLocked returns an empty head for a miss on name, linked
// into the table: a spare one when the partition has one, a fresh
// allocation otherwise. Called with p.mu held.
func (m *Manager) takeHeadLocked(p *partition, name Name) *lockHead {
	var lh *lockHead
	if n := len(p.spare); n > 0 {
		lh, p.spare = p.spare[n-1], p.spare[:n-1]
		m.stats.headRecycles.Inc()
	} else {
		lh = &lockHead{granted: make(map[uint64]Mode)}
		m.stats.headAllocs.Inc()
	}
	invariant.PoolGot("lock.takeHeadLocked", lh)
	lh.word = m.word(name)
	p.table[name] = lh
	return lh
}

// retireHeadLocked unlinks lh from the table if it is empty and keeps
// it as a spare. Called with p.mu held.
func (m *Manager) retireHeadLocked(p *partition, name Name, lh *lockHead) {
	if len(lh.granted) != 0 || len(lh.queue) != 0 || p.table[name] != lh {
		return
	}
	delete(p.table, name)
	lh.queue = nil // drop the backing array: it may pin waiter objects
	m.stats.headRetires.Inc()
	invariant.PoolPut("lock.retireHeadLocked", lh)
	p.spare = append(p.spare, lh)
}

// wfStripes is how many stripes the waits-for graph has.
const wfStripes = 64

type wfStripe struct {
	mu sync.Mutex
	// waiting maps each waiting transaction hashed to this stripe to
	// its waiter, whose on are its out-edges. A transaction waits for
	// one lock at a time.
	waiting map[uint64]*waiter
	_       [40]byte
}

func wfIdx(txn uint64) int {
	return int((txn * 0x9e3779b97f4a7c15) >> 58)
}

// Manager is the lock table. Aside from the partitioned table itself,
// all bookkeeping is striped (waits-for graph) or carried by the
// caller (held sets, escalation counts — see Holder), so acquiring and
// releasing never take a manager-global mutex. Transactions reach it
// through a Holder (NewHolder).
type Manager struct {
	opts  Options
	parts []partition

	// words are the tables' intent words (counter.go), indexed by
	// table id; nil under one partition.
	words []atomic.Uint64

	// wf is the sharded deadlock-detection graph.
	wf [wfStripes]wfStripe

	// stats are striped cumulative counters (obs.Counter), so the
	// bookkeeping of a decentralized lock table is not itself a
	// centralized cache line. StatsSnapshot sums the stripes with
	// atomic loads.
	stats struct {
		acquires, tableOps         obs.Counter
		waits, deadlocks, timeouts obs.Counter
		upgrades, releaseAll       obs.Counter
		escalations, escalatedAcqs obs.Counter
		escalationRefusals         obs.Counter
		headAllocs, headRecycles   obs.Counter
		headRetires, bypasses      obs.Counter
		intentCounts, casRetries   obs.Counter
	}

	// waitProf is the time-to-acquire distribution of transactional
	// lock waits (conflicts only — the un-contended grant path never
	// observes). Fed on the already-blocking path, so always-on.
	waitProf obs.Hist
}

// NewManager returns an empty lock table.
func NewManager(opts Options) *Manager {
	opts.Partitions = max(opts.Partitions, 1)
	m := &Manager{
		opts:  opts,
		parts: make([]partition, opts.Partitions),
	}
	for i := range m.parts {
		m.parts[i].table = make(map[Name]*lockHead)
	}
	for i := range m.wf {
		m.wf[i].waiting = make(map[uint64]*waiter)
	}
	if opts.Partitions > 1 {
		m.words = make([]atomic.Uint64, countedTables)
	}
	return m
}

func (m *Manager) part(n Name) *partition {
	return &m.parts[n.hash()%uint64(len(m.parts))]
}

// covered returns the partitions holding rows a lock on n covers: a
// row's own, or for a table every one.
func (m *Manager) covered(n Name) []partition {
	if n.Level != LevelRow {
		return m.parts
	}
	i := n.hash() % uint64(len(m.parts))
	return m.parts[i : i+1]
}

// request decides a request for name in mode that reaches the lock
// table, under name's partition mutex and without waiting. It grants
// the request; or refuses it as the deadlock victim, having installed
// the waiter's edges and searched from them (cycle) before the waiter
// would enter the queue, so a victim never queues; or queues the
// waiter, edges installed, and returns it for wait. An escalation
// (never) is the same decision, refused (errRefused) where another
// request would queue or go ahead of queued waiters.
func (m *Manager) request(h *Holder, name Name, mode Mode, never bool) (*waiter, error) {
	m.stats.tableOps.Inc()
	txn := h.id
	held, own := h.heldAt(name)
	p := m.part(name)
	p.mu.Lock()
	defer p.mu.Unlock()
	lh := p.table[name]
	if lh == nil {
		lh = m.takeHeadLocked(p, name)
	}
	if lh.word != nil {
		lh.word.Or(headBit) // no count is taken past this point
	}

	// A transaction that holds the name — by a grant here or by a
	// count — asks for the supremum (covers answered any request it
	// already held), judged against the others only, and goes ahead of
	// the queue.
	target := Supremum(held, mode)
	upgrade, queued := held != None, len(lh.queue) > 0
	if (!queued || upgrade && !never) && lh.admits(target, txn, own) {
		if upgrade && !never {
			m.stats.upgrades.Add(1)
		}
		lh.grantLocked(txn, target, own)
		m.settleLocked(p, name, lh)
		h.note(name, target)
		return nil, nil
	}
	if never {
		m.settleLocked(p, name, lh)
		return nil, errRefused
	}

	m.stats.waits.Inc()
	w := &waiter{txn: txn, mode: target, own: own, since: obs.Now(), ready: make(chan struct{}, 1)}
	w.anon = lh.word != nil && !countsAdmit(lh.word.Load(), own, target)
	// An upgrader waits only on current holders; a plain waiter also
	// waits on everyone queued ahead of it.
	w.on = make([]uint64, 0, len(lh.granted)+len(lh.queue))
	for t := range lh.granted {
		if t != txn {
			w.on = append(w.on, t)
		}
	}
	if !upgrade {
		for _, qw := range lh.queue {
			w.on = append(w.on, qw.txn)
		}
	}
	m.addWaitEdges(w)
	// An upgrader goes ahead of the waiters already queued, which then
	// wait on it without an edge that names it.
	if m.cycle(w, h, upgrade && queued) {
		m.clearWaitEdges(txn)
		m.stats.deadlocks.Add(1)
		m.settleLocked(p, name, lh)
		return nil, fmt.Errorf("%w: txn %d on %s (%s)", ErrDeadlock, txn, name, target)
	}
	if upgrade {
		lh.queue = slices.Insert(lh.queue, 0, w)
	} else {
		lh.queue = append(lh.queue, w)
	}
	return w, nil
}

// admits reports whether target is compatible with every grant other
// than txn's own and, on a table with an intent word, with the counts
// on it less txn's own count (own).
func (h *lockHead) admits(target Mode, txn uint64, own Mode) bool {
	for t, held := range h.granted {
		if t != txn && !Compatible(held, target) {
			return false
		}
	}
	return h.word == nil || countsAdmit(h.word.Load(), own, target)
}

// grantLocked grants target to txn, moving txn's count on the table's
// word (own, if any) into the grant. Called with the partition mutex
// held.
func (h *lockHead) grantLocked(txn uint64, target, own Mode) {
	if own != None {
		h.word.Add(-countOf(own))
	}
	h.granted[txn] = target
}

// wait blocks h's transaction until w, which request queued for it on
// name, is granted, or past the manager's WaitTimeout, and feeds the
// wait into the manager's time-to-acquire histogram, the phase clock
// and the event tracer. It holds no lock while it blocks.
func (m *Manager) wait(h *Holder, name Name, w *waiter) error {
	var timeout <-chan time.Time
	if m.opts.WaitTimeout > 0 {
		t := time.NewTimer(m.opts.WaitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var err error
	select {
	case <-w.ready:
	case <-timeout:
		if m.removeWaiter(name, w) {
			m.stats.timeouts.Add(1)
			err = fmt.Errorf("%w: txn %d on %s (%s)", ErrTimeout, h.id, name, w.mode)
		} else {
			<-w.ready // granted as it timed out
		}
	}
	waited := obs.Now() - w.since
	m.waitProf.ObserveNanos(waited)
	h.clock.Add(obs.PhaseLockWait, waited)
	obs.TraceEvent(obs.EvLockWait, h.id, name.hash(), uint64(waited))
	if err == nil {
		h.note(name, w.mode)
	}
	return err
}

// removeWaiter takes a timed-out w out of name's queue and the
// waits-for graph, reporting whether it was still queued (false: its
// grant came first). It may have been the only thing blocking
// compatible waiters queued behind it (admission is FIFO from the
// front), so removal settles the head like a release.
func (m *Manager) removeWaiter(name Name, w *waiter) bool {
	p := m.part(name)
	p.mu.Lock()
	defer p.mu.Unlock()
	lh := p.table[name] // w's grant or w keeps it linked
	i := slices.Index(lh.queue, w)
	if i < 0 {
		return false
	}
	lh.queue = slices.Delete(lh.queue, i, i+1)
	m.clearWaitEdges(w.txn)
	m.settleLocked(p, name, lh)
	return true
}

// addWaitEdges installs w's edges in its transaction's stripe of the
// waits-for graph, which is sharded so that deadlock bookkeeping from
// unrelated transactions never touches the same mutex. It runs under
// the partition mutex of the head w would queue on, before w's search,
// so a waiter that queues behind w later finds w's edges in its own.
func (m *Manager) addWaitEdges(w *waiter) {
	st := &m.wf[wfIdx(w.txn)]
	st.mu.Lock()
	st.waiting[w.txn] = w
	st.mu.Unlock()
}

// cycle reports whether w, whose edges are installed, may close a
// cycle; its transaction is then the victim. The search follows named
// edges, one stripe lock at a time; of a cycle of named edges, the
// member that installs its edges last sees every one. An anonymous
// waiter lacks its edges to the count holders blocking it, so a search
// that starts at one or reaches one suspects a cycle, and a suspect
// that holds a lock is the victim if it is exposed: an upgrader that
// jumped ahead of queued waiters is, and otherwise Manager.exposed
// decides. That rule is conservative and complete (DESIGN.md, "Counts
// have no names"): the last member of a cycle to install its edges
// holds a lock, suspects, and is exposed. A request that holds
// nothing, such as an autocommit read queued behind a draining Scan,
// is never the victim.
func (m *Manager) cycle(w *waiter, h *Holder, jumped bool) bool {
	stack := append([]uint64(nil), w.on...)
	seen := map[uint64]bool{}
	suspect := w.anon
	for len(stack) > 0 && !suspect {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == w.txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		cs := &m.wf[wfIdx(cur)]
		cs.mu.Lock()
		if cw := cs.waiting[cur]; cw != nil {
			suspect = cw.anon
			stack = append(stack, cw.on...)
		}
		cs.mu.Unlock()
	}
	return suspect && len(h.held) != 0 && (jumped || m.exposed(w, h.counts()))
}

// exposed reports whether another transaction may close a cycle
// through w: a waiter names it, or w's transaction holds a count
// (counts) and another waiter, whose blockers that count may be among,
// is anonymous. Only a suspect asks (cycle), so the walk over every
// stripe is off the common path.
func (m *Manager) exposed(w *waiter, counts bool) bool {
	for i := range m.wf {
		st := &m.wf[i]
		st.mu.Lock()
		for _, x := range st.waiting {
			if x != w && (counts && x.anon || slices.Contains(x.on, w.txn)) {
				st.mu.Unlock()
				return true
			}
		}
		st.mu.Unlock()
	}
	return false
}

func (m *Manager) clearWaitEdges(txn uint64) {
	st := &m.wf[wfIdx(txn)]
	st.mu.Lock()
	delete(st.waiting, txn)
	st.mu.Unlock()
}

func (m *Manager) releaseOne(txn uint64, name Name) {
	p := m.part(name)
	p.mu.Lock()
	lh := p.table[name]
	if lh == nil {
		p.mu.Unlock()
		return
	}
	delete(lh.granted, txn)
	m.settleLocked(p, name, lh)
	p.mu.Unlock()
}

// settleLocked is what every departure from a head (a release, a
// waiter leaving, a count dropped while the head bit is set, a refused
// escalation) ends with: admit the waiters it may have unblocked,
// clear the table word's head bit once the head keeps no S, SIX or X
// grant and no waiter, and retire the head if it is empty. Called with
// p.mu held.
func (m *Manager) settleLocked(p *partition, name Name, lh *lockHead) {
	m.grantWaitersLocked(lh)
	if lh.word != nil && len(lh.queue) == 0 && !lh.strong() {
		lh.word.And(^headBit)
	}
	m.retireHeadLocked(p, name, lh)
}

// strong reports whether a grant on the head locks the whole subtree
// (S, SIX or X).
func (h *lockHead) strong() bool {
	for _, md := range h.granted {
		if md >= S {
			return true
		}
	}
	return false
}

// grantWaitersLocked admits queued waiters from the front while they
// are compatible. Called with the partition mutex held. The wakeup
// sends cannot block: ready has capacity 1 and each waiter is popped
// exactly once.
//
//hydra:vet:nonpropagating -- ready channels have capacity 1 and each waiter is granted at most once
func (m *Manager) grantWaitersLocked(lh *lockHead) {
	for len(lh.queue) > 0 {
		w := lh.queue[0]
		// An upgrade waiter already holds a grant: it is checked
		// against the others only, and ends with the supremum.
		target := Supremum(lh.granted[w.txn], w.mode)
		if !lh.admits(target, w.txn, w.own) {
			return
		}
		lh.grantLocked(w.txn, target, w.own)
		lh.queue = lh.queue[1:]
		m.clearWaitEdges(w.txn)
		w.ready <- struct{}{}
	}
}

// WaitHist returns a snapshot of the transactional lock-wait
// distribution (time from enqueue to grant or timeout; a deadlock
// victim never waits).
func (m *Manager) WaitHist() hist.H { return m.waitProf.Snapshot() }

// OldestWaiterAge returns the age in nanoseconds of the oldest
// enqueued lock waiter, and how many are enqueued: the stall flight
// recorder's poll, a walk of every partition under its mutex.
func (m *Manager) OldestWaiterAge() (age int64, waiters int) {
	now := obs.Now()
	oldest := int64(0)
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		for _, lh := range p.table {
			for _, w := range lh.queue {
				waiters++
				if a := now - w.since; a > oldest {
					oldest = a
				}
			}
		}
		p.mu.Unlock()
	}
	return oldest, waiters
}

// WaitsForSnapshot copies the waits-for graph, txn -> blockers, for
// incident bundles: stripe by stripe, so consistent per stripe only.
func (m *Manager) WaitsForSnapshot() map[uint64][]uint64 {
	out := make(map[uint64][]uint64)
	for i := range m.wf {
		st := &m.wf[i]
		st.mu.Lock()
		for txn, w := range st.waiting {
			out[txn] = append(out[txn], w.on...)
		}
		st.mu.Unlock()
	}
	return out
}

// StatsSnapshot sums the striped cumulative counters.
func (m *Manager) StatsSnapshot() Stats {
	return Stats{
		Acquires:           m.stats.acquires.Load(),
		TableOps:           m.stats.tableOps.Load(),
		Waits:              m.stats.waits.Load(),
		Deadlocks:          m.stats.deadlocks.Load(),
		Timeouts:           m.stats.timeouts.Load(),
		Upgrades:           m.stats.upgrades.Load(),
		ReleaseAll:         m.stats.releaseAll.Load(),
		Escalations:        m.stats.escalations.Load(),
		EscalationRefusals: m.stats.escalationRefusals.Load(),
		EscalatedAcqs:      m.stats.escalatedAcqs.Load(),
		HeadAllocs:         m.stats.headAllocs.Load(),
		HeadRecycles:       m.stats.headRecycles.Load(),
		HeadRetires:        m.stats.headRetires.Load(),
		Bypasses:           m.stats.bypasses.Load(),
		IntentCounts:       m.stats.intentCounts.Load(),
		IntentCASRetries:   m.stats.casRetries.Load(),
	}
}

// NoteBypass records n acquisitions the MVCC snapshot path skipped.
func (m *Manager) NoteBypass(n int) {
	m.stats.bypasses.Add(uint64(n))
}
