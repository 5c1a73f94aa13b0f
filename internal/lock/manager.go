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
	// HotThreshold is the contention count past which SLI considers a
	// lock hot. Default 4.
	HotThreshold int
}

func (o *Options) fill() {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.HotThreshold <= 0 {
		o.HotThreshold = 4
	}
}

// Stats are cumulative lock-manager counters. Each field's tags are the
// metric's one definition: every surface (/stats, /metrics, STATS FULL,
// hydra-cli, hydra-top) derives from them (DESIGN.md §7).
type Stats struct {
	Acquires   uint64 `json:"acquires"`  // logical acquisitions requested
	TableOps   uint64 `json:"table_ops"` // acquisitions that reached the lock table
	Inherited  uint64 `json:"inherited"` // acquisitions satisfied from an SLI agent cache
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
	// it. HeatEvictions counts heat-table entries dropped to keep the
	// per-partition conflict history under its cap.
	HeadAllocs    uint64 `json:"head_allocs"`
	HeadRecycles  uint64 `json:"head_recycles"`
	HeadRetires   uint64 `json:"head_retires"`
	HeatEvictions uint64 `json:"heat_evictions"`
	// Bypasses counts logical acquisitions the MVCC snapshot-read path
	// skipped entirely: reads that, on the locked path, would have gone
	// through Acquire but instead resolved against version chains.
	Bypasses uint64 `json:"bypasses"`
}

type waiter struct {
	txn     uint64
	mode    Mode
	upgrade bool
	// since is the obs.Now() stamp at enqueue; the stall flight
	// recorder scans it to find waiters older than its threshold.
	since int64
	ready chan error
}

type lockHead struct {
	// granted maps a transaction to the mode it holds, by value: a
	// grant costs no allocation once the (recycled) head's map has room.
	granted map[uint64]Mode
	queue   []*waiter
	// contention is a decaying count of observed conflicts, used by
	// SLI to classify locks as hot.
	contention int
	// free links retired heads into the partition's Treiber-stack
	// freelist. Accessed only with atomics: the pusher publishes
	// through it after p.mu is released, and the popper (under p.mu)
	// reads it concurrently with pushes.
	free unsafe.Pointer // *lockHead
}

type partition struct {
	mu    invariant.Mutex[invariant.LockPart]
	table map[Name]*lockHead
	// heat persists observed conflict counts per name, surviving lock
	// head reclamation; SLI consults it to classify hot locks. Striped
	// with the partition so it rides the same mutex instead of a
	// global one. Bounded: admission past heatCap evicts a cold entry,
	// and every heatDecayEvery bumps the whole table halves (see
	// bumpHeat), so churning row conflicts cannot grow it forever.
	heat map[Name]int
	// heatTicks counts bumps since the last decay sweep (under mu).
	heatTicks int
	// free is the top of the partition's lock-free freelist of retired
	// lockHeads. Pushes (retire) are lock-free CAS prepends from any
	// goroutine after it has unlinked the head from table and released
	// mu; pops happen only while holding mu, so there is exactly one
	// popper at a time and the classic Treiber ABA interleaving (top
	// popped and re-pushed between a popper's read and its CAS) cannot
	// occur — concurrent pushes only ever prepend in front of the
	// observed top.
	free unsafe.Pointer // *lockHead
	_    [24]byte       // pad to a cache line so adjacent partitions don't false-share
}

// Heat-table bounds. heatCap is the per-partition entry cap;
// heatDecayEvery is the bump count between halving sweeps (the decay
// that lets a once-hot name cool off and leave the table); heatProbe
// is how many randomly-iterated entries an over-cap admission
// examines to pick an eviction victim.
const (
	heatCap        = 512
	heatDecayEvery = 8192
	heatProbe      = 8
)

// bumpHeat increments name's observed-conflict count in the bounded
// heat table. Called with p.mu held. Every heatDecayEvery bumps the
// whole table halves and zeroed entries drop out, so heat is a
// decaying count, not an append-only one; when an admission would
// push the table past heatCap, the coldest of heatProbe sampled
// entries (map iteration order is randomized) is evicted instead of
// growing. Genuinely hot names are bumped far more often than they
// are halved or sampled, so SLI's hot-lock classification survives
// the bound.
func (m *Manager) bumpHeat(p *partition, name Name) {
	p.heatTicks++
	if p.heatTicks >= heatDecayEvery {
		p.heatTicks = 0
		for n, v := range p.heat {
			if v >>= 1; v == 0 {
				delete(p.heat, n)
			} else {
				p.heat[n] = v
			}
		}
	}
	if _, ok := p.heat[name]; !ok && len(p.heat) >= heatCap {
		var victim Name
		coldest := int(^uint(0) >> 1)
		probed := 0
		for n, v := range p.heat {
			if v < coldest {
				victim, coldest = n, v
			}
			if probed++; probed >= heatProbe {
				break
			}
		}
		delete(p.heat, victim)
		m.stats.heatEvictions.Inc()
	}
	p.heat[name]++
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
			invariant.Assert(len(lh.granted) == 0 && len(lh.queue) == 0 && lh.contention == 0,
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
	lh.contention = 0
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
	// edges maps txn -> txns it waits on, for transactions hashed to
	// this stripe.
	edges map[uint64]map[uint64]bool
	_     [40]byte
}

func wfIdx(txn uint64) int {
	return int((txn * 0x9e3779b97f4a7c15) >> 58)
}

// Manager is the lock table. Aside from the partitioned table itself,
// all bookkeeping is striped (waits-for graph, heat) or carried by the
// caller (held sets, escalation counts — see Holder), so acquiring and
// releasing never take a manager-global mutex. Transactions reach it
// through a Holder (NewHolder) or an SLI Agent (NewAgent).
type Manager struct {
	opts  Options
	parts []partition

	// wf is the sharded deadlock-detection graph.
	wf [wfStripes]wfStripe

	// agents maps SLI agent pseudo-transactions to their reclaim
	// flag; registration is rare, lookups on the wait path are
	// lock-free.
	agents sync.Map // uint64 -> *atomic.Bool

	// stats are striped cumulative counters (obs.Counter), so the
	// bookkeeping of a decentralized lock table is not itself a
	// centralized cache line. StatsSnapshot sums the stripes with
	// atomic loads.
	stats struct {
		acquires, tableOps, inherited obs.Counter
		waits, deadlocks, timeouts    obs.Counter
		upgrades, releaseAll          obs.Counter
		escalations, escalatedAcqs    obs.Counter
		escalationRefusals            obs.Counter
		headAllocs, headRecycles      obs.Counter
		headRetires, heatEvictions    obs.Counter
		bypasses                      obs.Counter
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
		m.parts[i].heat = make(map[Name]int)
	}
	for i := range m.wf {
		m.wf[i].edges = make(map[uint64]map[uint64]bool)
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
	if name.Level != LevelRow {
		// Heat tracks how often coarse-grained names pass through the
		// table; SLI classifies frequently re-acquired intent locks as
		// inheritance candidates. (Intent modes are mutually
		// compatible, so conflict counts alone would never find them.)
		m.bumpHeat(p, name)
	}
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
	lh.contention++
	m.bumpHeat(p, name)
	w := &waiter{txn: txn, mode: mode, upgrade: upgrade, since: start, ready: make(chan error, 1)}
	if upgrade {
		// Upgraders go first to shrink the conversion window.
		lh.queue = append([]*waiter{w}, lh.queue...)
	} else {
		lh.queue = append(lh.queue, w)
	}

	// Record waits-for edges and check for a cycle before sleeping.
	// An upgrader waits only on current holders; a plain waiter also
	// waits on everyone queued ahead of it.
	blockers := make([]uint64, 0, len(lh.granted))
	for t := range lh.granted {
		if t != txn {
			blockers = append(blockers, t)
		}
	}
	if !upgrade {
		for _, qw := range lh.queue {
			if qw == w {
				break
			}
			if qw.txn != txn {
				blockers = append(blockers, qw.txn)
			}
		}
	}
	p.mu.Unlock()

	// If any blocker is an SLI agent's retained lock, ask the agent
	// to surrender it at its next transaction boundary.
	m.flagAgentsAmong(blockers)

	if m.addWaitEdges(txn, blockers) {
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

// addWaitEdges installs txn->blockers edges and reports whether doing
// so creates a cycle reachable back to txn. The graph is sharded: an
// edge lives in its source transaction's stripe, and the cycle DFS
// locks one stripe at a time, so detection never serializes unrelated
// waiters behind a global graph mutex. If a cycle exists, the
// transaction that installs its last edge sees every edge of the
// cycle (each was installed before that DFS began), so the cycle is
// still always detected by at least one participant.
func (m *Manager) addWaitEdges(txn uint64, blockers []uint64) bool {
	st := &m.wf[wfIdx(txn)]
	st.mu.Lock()
	set := st.edges[txn]
	if set == nil {
		set = make(map[uint64]bool)
		st.edges[txn] = set
	}
	for _, b := range blockers {
		set[b] = true
	}
	// Seed the DFS with a snapshot of txn's full out-edge set.
	stack := make([]uint64, 0, len(set))
	for b := range set {
		stack = append(stack, b)
	}
	st.mu.Unlock()

	// DFS from txn looking for a path back to txn.
	seen := map[uint64]bool{}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		cs := &m.wf[wfIdx(cur)]
		cs.mu.Lock()
		for nb := range cs.edges[cur] {
			stack = append(stack, nb)
		}
		cs.mu.Unlock()
	}
	return false
}

func (m *Manager) clearWaitEdges(txn uint64) {
	st := &m.wf[wfIdx(txn)]
	st.mu.Lock()
	delete(st.edges, txn)
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

// contentionOf reports the cumulative conflict count for name.
func (m *Manager) contentionOf(name Name) int {
	p := m.part(name)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heat[name]
}

// flagAgentsAmong sets the reclaim flag of every registered agent in
// ids, so retained locks blocking real transactions are surrendered
// at the next boundary. Agent ids live in their own range, so the
// common all-real-transactions case never touches the agent map.
func (m *Manager) flagAgentsAmong(ids []uint64) {
	for _, id := range ids {
		if id < agentIDBase {
			continue
		}
		if f, ok := m.agents.Load(id); ok {
			f.(*atomic.Bool).Store(true)
		}
	}
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
		for txn, set := range st.edges {
			if len(set) == 0 {
				continue
			}
			bl := make([]uint64, 0, len(set))
			for b := range set {
				bl = append(bl, b)
			}
			out[txn] = bl
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
		Inherited:          m.stats.inherited.Load(),
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
		HeatEvictions:      m.stats.heatEvictions.Load(),
		Bypasses:           m.stats.bypasses.Load(),
	}
}

// NoteBypass records n logical acquisitions the MVCC snapshot path
// skipped. Pure accounting: no partition is touched.
func (m *Manager) NoteBypass(n int) {
	m.stats.bypasses.Add(uint64(n))
}
