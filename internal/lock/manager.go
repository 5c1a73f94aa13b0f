package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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

func (o *Options) fill() {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
}

// Stats are cumulative lock-manager counters. Each field's tags are the
// metric's one definition: every surface (/stats, /metrics, STATS FULL,
// hydra-cli, hydra-top) derives from them (DESIGN.md §7).
type Stats struct {
	Acquires   uint64 `json:"acquires"`  // logical acquisitions requested
	TableOps   uint64 `json:"table_ops"` // acquisitions that reached the lock table
	Waits      uint64 `json:"waits"`     // acquisitions that blocked
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
}

type waiter struct {
	txn     uint64
	gen     uint64 // the holder's transaction serial (Holder.gen)
	mode    Mode
	upgrade bool
	// since is the obs.Now() stamp at enqueue; the stall flight
	// recorder scans it to find waiters older than its threshold.
	since int64
	// on lists the transactions w waits for: its waits-for edges, in
	// its stripe of the graph while it waits. Set before it is
	// published there, never changed after.
	on    []wfNode
	ready chan error
}

type lockHead struct {
	// granted maps a transaction to the mode it holds, by value: a
	// grant costs no allocation once the (recycled) head's map has room.
	granted map[uint64]Mode
	queue   []*waiter
	// free links retired heads into the partition's Treiber-stack
	// freelist. Accessed only with atomics: the pusher publishes
	// through it after p.mu is released, and the popper (under p.mu)
	// reads it concurrently with pushes.
	free unsafe.Pointer // *lockHead
}

type partition struct {
	mu    invariant.Mutex[invariant.LockPart]
	table map[Name]*lockHead
	// free is the top of the partition's lock-free freelist of retired
	// lockHeads. Pushes (retire) are lock-free CAS prepends from any
	// goroutine after it has unlinked the head from table and released
	// mu; pops happen only while holding mu, so there is exactly one
	// popper at a time and the classic Treiber ABA interleaving (top
	// popped and re-pushed between a popper's read and its CAS) cannot
	// occur — concurrent pushes only ever prepend in front of the
	// observed top.
	free unsafe.Pointer // *lockHead
	_    [40]byte       // pad to a cache line so adjacent partitions don't false-share
}

// takeHeadLocked returns an empty lockHead for a table miss: a
// recycled head popped from the partition freelist when one is
// available, a fresh allocation otherwise. Called with p.mu held —
// the mutex is what serializes poppers (see partition.free); the pop
// itself is a short CAS loop racing only with lock-free pushers.
func (m *Manager) takeHeadLocked(p *partition) *lockHead {
	for {
		top := atomic.LoadPointer(&p.free)
		if top == nil {
			break
		}
		lh := (*lockHead)(top)
		next := atomic.LoadPointer(&lh.free)
		if atomic.CompareAndSwapPointer(&p.free, top, next) {
			atomic.StorePointer(&lh.free, nil)
			m.stats.headRecycles.Inc()
			invariant.PoolGot("lock.takeHeadLocked(recycle)", lh)
			invariant.Assert(len(lh.granted) == 0 && len(lh.queue) == 0,
				"recycled lock head carries stale state")
			return lh
		}
	}
	m.stats.headAllocs.Inc()
	lh := &lockHead{granted: make(map[uint64]Mode)}
	invariant.PoolGot("lock.takeHeadLocked(alloc)", lh)
	return lh
}

// retireHead pushes an empty head onto the partition freelist. The
// caller must already have unlinked it from p.table and released
// p.mu: once unlinked the head is unreachable, so the push — and the
// state scrub before it — happen outside the partition critical
// section (the retire-outside-mutex protocol). After the push the head
// belongs to the freelist; only takeHeadLocked may touch it again.
func (m *Manager) retireHead(p *partition, lh *lockHead) {
	invariant.Assert(len(lh.granted) == 0 && len(lh.queue) == 0,
		"retiring a non-empty lock head")
	lh.queue = nil // drop the backing array: it may pin waiter objects
	m.stats.headRetires.Inc()
	invariant.PoolPut("lock.retireHead", lh)
	for {
		top := atomic.LoadPointer(&p.free)
		atomic.StorePointer(&lh.free, top)
		if atomic.CompareAndSwapPointer(&p.free, top, unsafe.Pointer(lh)) {
			return
		}
	}
}

// reclaimHeadLocked unlinks lh from the table if it is empty,
// returning it for the caller to retireHead after p.mu is released
// (nil when the head is still live). Called with p.mu held.
func reclaimHeadLocked(p *partition, name Name, lh *lockHead) *lockHead {
	if len(lh.granted) != 0 || len(lh.queue) != 0 || p.table[name] != lh {
		return nil
	}
	delete(p.table, name)
	return lh
}

// wfStripes shards the waits-for graph so deadlock bookkeeping from
// unrelated transactions never touches the same mutex.
const wfStripes = 64

type wfStripe struct {
	mu sync.Mutex
	// waiting maps each waiting transaction hashed to this stripe to
	// its waiter, whose on are its out-edges. A transaction waits for
	// one lock at a time.
	waiting map[uint64]*waiter
	_       [40]byte
}

// wfNode names a transaction in the waits-for graph: the id its locks
// are granted to, and the holder's transaction serial. An SLI agent's
// id outlives its transactions, and an edge left from one of them must
// not close a cycle with the next.
type wfNode struct{ txn, gen uint64 }

func wfIdx(txn uint64) int {
	return int((txn * 0x9e3779b97f4a7c15) >> 58)
}

// Manager is the lock table. Aside from the partitioned table itself,
// all bookkeeping is striped (waits-for graph) or carried by the
// caller (held sets, escalation counts — see Holder), so acquiring and
// releasing never take a manager-global mutex. Transactions reach it
// through a Holder (NewHolder) or an SLI Agent (NewAgent).
type Manager struct {
	opts  Options
	parts []partition

	// wf is the sharded deadlock-detection graph.
	wf [wfStripes]wfStripe

	// agents maps SLI agent ids to their agents; registration is rare,
	// lookups on the wait path are lock-free.
	agents sync.Map // uint64 -> *Agent

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
	}

	// waitProf is the time-to-acquire distribution of transactional
	// lock waits (conflicts only — the un-contended grant path never
	// observes). Fed on the already-blocking path, so always-on.
	waitProf obs.Hist
}

// NewManager returns an empty lock table.
func NewManager(opts Options) *Manager {
	opts.fill()
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
	return m
}

func (m *Manager) part(n Name) *partition {
	return &m.parts[n.hash()%uint64(len(m.parts))]
}

func (m *Manager) acquireTable(h *Holder, name Name, mode Mode) error {
	m.stats.tableOps.Inc()
	txn := h.id
	p := m.part(name)
	p.mu.Lock()
	lh := p.table[name]
	if lh == nil {
		lh = m.takeHeadLocked(p)
		p.table[name] = lh
	}

	if held, ok := lh.granted[txn]; ok {
		target := Supremum(held, mode)
		if target == held {
			p.mu.Unlock()
			h.note(name, held)
			return nil
		}
		// Upgrade: must be compatible with every other holder.
		if lh.compatibleExcept(target, txn) {
			m.stats.upgrades.Add(1)
			lh.granted[txn] = target
			p.mu.Unlock()
			h.note(name, target)
			return nil
		}
		// Blocked upgrade: wait at the head of the queue.
		return m.wait(p, lh, name, h, target, true)
	}

	if len(lh.queue) == 0 && lh.compatibleExcept(mode, txn) {
		lh.granted[txn] = mode
		p.mu.Unlock()
		h.note(name, mode)
		return nil
	}
	return m.wait(p, lh, name, h, mode, false)
}

// compatibleExcept reports whether mode is compatible with every
// grant other than txn's own.
func (h *lockHead) compatibleExcept(mode Mode, txn uint64) bool {
	for t, held := range h.granted {
		if t == txn {
			continue
		}
		if !Compatible(held, mode) {
			return false
		}
	}
	return true
}

// wait times the blocking path: the enqueue-and-sleep itself is
// waitInner; the wrapper feeds the observed wait into the manager's
// time-to-acquire histogram and the transaction event tracer. Called
// with p.mu held; returns with it released.
//
//hydra:vet:nonpropagating -- waitInner releases the caller's p.mu before blocking
func (m *Manager) wait(p *partition, lh *lockHead, name Name, h *Holder, mode Mode, upgrade bool) error {
	start := obs.Now()
	err := m.waitInner(p, lh, name, h, mode, upgrade, start)
	waited := obs.Now() - start
	m.waitProf.ObserveNanos(waited)
	h.clock.Add(obs.PhaseLockWait, waited)
	obs.TraceEvent(obs.EvLockWait, h.id, name.hash(), uint64(waited))
	return err
}

// waitInner enqueues h's transaction and blocks until granted. Called
// with p.mu held; returns with it released.
//
//hydra:vet:nonpropagating -- releases the caller's p.mu before blocking on the ready channel
func (m *Manager) waitInner(p *partition, lh *lockHead, name Name, h *Holder, mode Mode, upgrade bool, start int64) error {
	m.stats.waits.Inc()
	txn := h.id
	w := &waiter{txn: txn, gen: h.gen.Load(), mode: mode, upgrade: upgrade, since: start, ready: make(chan error, 1)}
	if upgrade {
		// Upgraders go first to shrink the conversion window.
		lh.queue = append([]*waiter{w}, lh.queue...)
	} else {
		lh.queue = append(lh.queue, w)
	}

	// Record waits-for edges and check for a cycle before sleeping.
	// An upgrader waits only on current holders; a plain waiter also
	// waits on everyone queued ahead of it.
	w.on = make([]wfNode, 0, len(lh.granted))
	for t := range lh.granted {
		if t != txn {
			w.on = append(w.on, m.holderNode(t, name.Level == LevelTable))
		}
	}
	if !upgrade {
		for _, qw := range lh.queue {
			if qw == w {
				break
			}
			if qw.txn != txn {
				w.on = append(w.on, wfNode{qw.txn, qw.gen})
			}
		}
	}
	p.mu.Unlock()

	if m.addWaitEdges(w) {
		// Cycle: abort self as victim — unless the grant already
		// arrived, in which case there is no wait and no deadlock.
		m.clearWaitEdges(txn)
		if m.removeWaiter(p, name, lh, w) {
			m.stats.deadlocks.Add(1)
			return fmt.Errorf("%w: txn %d on %s (%s)", ErrDeadlock, txn, name, mode)
		}
		if err := <-w.ready; err != nil {
			return err
		}
		h.note(name, mode)
		return nil
	}

	var timeout <-chan time.Time
	if m.opts.WaitTimeout > 0 {
		t := time.NewTimer(m.opts.WaitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-w.ready:
		m.clearWaitEdges(txn)
		if err == nil {
			h.note(name, mode)
		}
		return err
	case <-timeout:
		m.clearWaitEdges(txn)
		if m.removeWaiter(p, name, lh, w) {
			m.stats.timeouts.Add(1)
			return fmt.Errorf("%w: txn %d on %s (%s)", ErrTimeout, txn, name, mode)
		}
		// Lost the race: the grant arrived as the timer fired.
		if err := <-w.ready; err != nil {
			return err
		}
		h.note(name, mode)
		return nil
	}
}

// removeWaiter deletes w from the queue, reporting whether it was
// still queued (false means it was already granted or failed). A
// timed-out or deadlock-victim waiter may have been the only thing
// blocking compatible waiters queued behind it (admission is FIFO
// from the front), so removal re-runs grantWaitersLocked; and if the
// departure leaves the head with no grants and no queue, the head is
// reclaimed like releaseOne would have.
func (m *Manager) removeWaiter(p *partition, name Name, lh *lockHead, w *waiter) bool {
	p.mu.Lock()
	removed := false
	for i, qw := range lh.queue {
		if qw == w {
			lh.queue = append(lh.queue[:i], lh.queue[i+1:]...)
			removed = true
			break
		}
	}
	var retired *lockHead
	if removed {
		m.grantWaitersLocked(lh)
		retired = reclaimHeadLocked(p, name, lh)
	}
	p.mu.Unlock()
	if retired != nil {
		m.retireHead(p, retired)
	}
	return removed
}

// addWaitEdges installs w's edges and reports whether doing so creates
// a cycle reachable back to its transaction. The graph is sharded: an
// edge lives in its source transaction's stripe, and the cycle DFS
// locks one stripe at a time, so detection never serializes unrelated
// waiters behind a global graph mutex. If a cycle exists, the
// transaction that installs its last edge sees every edge of the
// cycle (each was installed before that DFS began), so the cycle is
// still always detected by at least one participant.
func (m *Manager) addWaitEdges(w *waiter) bool {
	txn := w.txn
	st := &m.wf[wfIdx(txn)]
	st.mu.Lock()
	st.waiting[txn] = w
	st.mu.Unlock()

	// DFS from txn looking for a path back to txn.
	self := wfNode{txn, w.gen}
	stack := append([]wfNode(nil), w.on...)
	seen := map[wfNode]bool{}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == self {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		cs := &m.wf[wfIdx(cur.txn)]
		cs.mu.Lock()
		if cw := cs.waiting[cur.txn]; cw != nil && cw.gen == cur.gen {
			stack = append(stack, cw.on...)
		}
		cs.mu.Unlock()
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
	m.grantWaitersLocked(lh)
	retired := reclaimHeadLocked(p, name, lh)
	p.mu.Unlock()
	if retired != nil {
		m.retireHead(p, retired)
	}
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
		if !lh.compatibleExcept(target, w.txn) {
			return
		}
		lh.granted[w.txn] = target
		lh.queue = lh.queue[1:]
		w.ready <- nil
	}
}

// holderNode returns the waits-for node of owner, which holds a grant
// on the head a waiter queues on; the partition mutex is held. Agent
// ids live in their own range, so the common no-agent case never
// touches the agent map.
//
// An agent holds a row only for its running transaction, so the serial
// read here is that transaction's. A table it may keep across its
// boundaries, so a waiter on one (table) also flags it to release
// everything at its next boundary. The flag is stored before the
// serial is read, and Agent.Begin bumps the serial before it reads the
// flag: a transaction that begins still keeping the table is the one
// the edge names.
func (m *Manager) holderNode(owner uint64, table bool) wfNode {
	if owner < agentIDBase {
		return wfNode{txn: owner}
	}
	v, _ := m.agents.Load(owner) // registered while it holds a grant
	a := v.(*Agent)
	if table {
		a.reclaim.Store(true)
	}
	return wfNode{owner, a.h.gen.Load()}
}

// WaitHist returns a snapshot of the transactional lock-wait
// distribution (time from conflict to grant, victims included).
func (m *Manager) WaitHist() hist.H { return m.waitProf.Snapshot() }

// OldestWaiterAge returns the age in nanoseconds of the oldest
// currently-enqueued lock waiter, and how many waiters are enqueued.
// The stall flight recorder polls it: a waiter older than the
// deadlock/timeout horizon means admission has stalled. It walks
// every partition under its mutex, so it is a diagnostics-rate call,
// not a hot-path one.
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

// WaitsForSnapshot copies the current waits-for graph: each entry is
// one txn -> blockers edge set. Diagnostics only (incident bundles);
// the copy is taken stripe by stripe, so it is a consistent view per
// stripe but not across stripes — fine for a stall snapshot.
func (m *Manager) WaitsForSnapshot() map[uint64][]uint64 {
	out := make(map[uint64][]uint64)
	for i := range m.wf {
		st := &m.wf[i]
		st.mu.Lock()
		for txn, w := range st.waiting {
			for _, n := range w.on {
				out[txn] = append(out[txn], n.txn)
			}
		}
		st.mu.Unlock()
	}
	return out
}

// StatsSnapshot returns a copy of the cumulative counters. Each
// counter is striped; Load sums the stripes with atomic loads.
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
	}
}

// NoteBypass records n logical acquisitions the MVCC snapshot path
// skipped. Pure accounting: no partition is touched.
func (m *Manager) NoteBypass(n int) {
	m.stats.bypasses.Add(uint64(n))
}
