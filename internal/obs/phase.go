package obs

import (
	"sync"
	"sync/atomic"

	"hydra/internal/hist"
)

// Phase identifies one slice of a transaction's wall time. The
// taxonomy follows the paper's question — where does a transaction's
// time go on a many-core machine — and is deliberately coarse: each
// phase maps to one blocking construct the engine owns, so a skewed
// histogram points straight at the subsystem to fix.
//
// PhaseUser is the residual: total wall time minus everything the
// engine attributed. It covers the application callback itself plus
// whatever the clock does not instrument (scheduler delay, allocator
// stalls), so it is an upper bound on "not the engine's fault".
type Phase uint8

const (
	// PhaseUser is the unattributed residual (application work,
	// scheduling). Computed at fold time, never fed directly.
	PhaseUser Phase = iota
	// PhaseLockWait is time blocked in the lock manager waiting for a
	// transactional lock grant (fed from lock.Manager's wait path).
	PhaseLockWait
	// PhaseLatchWait is time blocked acquiring a contended physical
	// latch (buffer shard mutexes and page latches; only the slow
	// path is timed — an uncontended acquire contributes zero).
	PhaseLatchWait
	// PhaseBufMissIO is buffer-miss work: reading the page from the
	// store, writing back a dirty victim, or waiting for another
	// goroutine's in-flight load of the same page.
	PhaseBufMissIO
	// PhaseLogInsert is time blocked inserting into the WAL ring —
	// buffer-full and lapping-ticket waits, contention on Serial's
	// copy lock. The uncontended reserve-copy path contributes zero.
	PhaseLogInsert
	// PhaseFlushWait is commit durability wait: time parked in
	// WaitFlushed until the flusher advances the durable LSN past the
	// transaction's commit record.
	PhaseFlushWait
	// PhaseQueueWait is DORA executor-queue time: from job enqueue to
	// the executor draining it.
	PhaseQueueWait
	// PhaseExecRun is DORA executor service time: the executor
	// running the transaction's actions (includes nested lock/latch/
	// IO time, which is also attributed to its own phase — executor
	// phases overlay the core phases rather than partitioning them).
	PhaseExecRun

	// NumPhases is the number of phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseUser:      "user",
	PhaseLockWait:  "lock_wait",
	PhaseLatchWait: "latch_wait",
	PhaseBufMissIO: "buf_miss_io",
	PhaseLogInsert: "log_insert",
	PhaseFlushWait: "flush_wait",
	PhaseQueueWait: "queue_wait",
	PhaseExecRun:   "exec_run",
}

// String returns the snake_case phase name used in /metrics labels.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// TxnPath tags which execution path ran a transaction.
type TxnPath uint8

const (
	// PathConv is the conventional path: the caller's goroutine runs
	// the transaction against the shared lock manager.
	PathConv TxnPath = iota
	// PathDoraSingle is DORA's single-partition fast path: the whole
	// transaction ships as one job to the owning executor.
	PathDoraSingle
	// PathDoraCross is DORA's cross-partition path: the caller's
	// goroutine claims every executor involved, in ascending id order,
	// and runs the actions itself.
	PathDoraCross
	// PathROSnap is the MVCC snapshot path: a read-only transaction
	// pinned to a snapshot LSN, resolving reads against the version
	// chains with zero lock-manager traffic.
	PathROSnap
	// PathSIWrite is the snapshot-isolation writer path: reads resolve
	// against a pinned snapshot, writes buffer into a write set and
	// validate first-committer-wins at commit.
	PathSIWrite

	// NumPaths is the number of execution paths (array sizing).
	NumPaths
)

var pathNames = [NumPaths]string{
	PathConv:       "conv",
	PathDoraSingle: "dora_single",
	PathDoraCross:  "dora_cross",
	PathROSnap:     "ro_snap",
	PathSIWrite:    "si_write",
}

// String returns the path label used in /metrics.
func (p TxnPath) String() string {
	if p < NumPaths {
		return pathNames[p]
	}
	return "unknown"
}

// TxnOutcome tags how a transaction ended.
type TxnOutcome uint8

const (
	// OutcomeCommit marks a committed transaction.
	OutcomeCommit TxnOutcome = iota
	// OutcomeAbort marks an aborted (or rolled-back) transaction.
	OutcomeAbort

	// NumOutcomes is the number of outcomes (array sizing).
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	OutcomeCommit: "commit",
	OutcomeAbort:  "abort",
}

// String returns the outcome label used in /metrics.
func (o TxnOutcome) String() string {
	if o < NumOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// PhaseClock accumulates one transaction's per-phase nanoseconds. It
// lives by value inside pooled transaction objects, so a transaction
// costs zero allocations for its clock; Reset re-arms it for reuse.
//
// One goroutine at a time feeds a clock: the one running the
// transaction — the caller for a conventional or cross-partition DORA
// transaction, the owning executor for a single-partition DORA job,
// which hands the transaction back over a channel before the caller's
// commit wait and fold. The adds are atomic nonetheless, so a clock can
// be read while its transaction runs.
// All methods are nil-safe so uninstrumented internal transactions
// (recovery, background maintenance) pass a nil clock and pay one
// predictable branch.
type PhaseClock struct {
	start int64
	ns    [NumPhases]int64

	// Deferred span: a blocking wait whose closing stamp is borrowed
	// from the fold's own end-of-transaction Now instead of a second
	// clock read at wake-up. Used by the commit flush wait, which ends
	// microseconds before the fold: the attribution error is the
	// transaction's teardown (registry delete, lock release), noise
	// against a group-commit wait, and the hot path saves one clock
	// read per commit. Plain fields: set and consumed on the one
	// goroutine that runs the commit wait and then the fold.
	deferPhase Phase
	deferT0    int64
}

// Start stamps the transaction's begin time (monotonic, from Now).
func (c *PhaseClock) Start(now int64) {
	if c == nil {
		return
	}
	c.start = now
}

// StartTime returns the begin stamp, or 0 if the clock is nil/unset.
func (c *PhaseClock) StartTime() int64 {
	if c == nil {
		return 0
	}
	return c.start
}

// Add attributes ns nanoseconds to phase p. Negative and zero deltas
// are dropped (a torn clock read must not corrupt the fold).
func (c *PhaseClock) Add(p Phase, ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	atomic.AddInt64(&c.ns[p], ns)
}

// Defer opens a span for phase p starting at t0 whose end is the
// fold's end-of-transaction stamp (see the field comment). Only one
// deferred span can be open; a second Defer before the fold closes the
// first one is a programming error and overwrites it.
func (c *PhaseClock) Defer(p Phase, t0 int64) {
	if c == nil {
		return
	}
	c.deferPhase = p
	c.deferT0 = t0
}

// Lap returns the accumulated nanoseconds for phase p.
func (c *PhaseClock) Lap(p Phase) int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.ns[p])
}

// Reset clears the clock for reuse by a pooled transaction object.
func (c *PhaseClock) Reset() {
	if c == nil {
		return
	}
	c.start = 0
	c.deferT0 = 0
	for i := range c.ns {
		atomic.StoreInt64(&c.ns[i], 0)
	}
}

// snap drains the per-phase lap times — each lap is atomically
// swapped to zero as it is read, so the fold doubles as the clock's
// reset and pooled transactions skip a Reset on their Begin hot path
// — and computes the user residual from the given total: total minus
// the attributed engine phases, clamped at zero (executor phases
// overlay core phases, so the attributed sum excludes PhaseExecRun —
// see Fold).
func (c *PhaseClock) snap(total int64, out *[NumPhases]int64) {
	var attributed int64
	for i := range c.ns {
		// Load-then-swap: an atomic load is an ordinary MOV on the
		// architectures we run, so the zero phases (most of them, on a
		// healthy transaction) cost a read instead of a locked XCHG.
		var v int64
		if atomic.LoadInt64(&c.ns[i]) != 0 {
			v = atomic.SwapInt64(&c.ns[i], 0)
		}
		out[i] = v
		switch Phase(i) {
		case PhaseUser, PhaseExecRun:
			// PhaseExecRun overlays lock/latch/IO/log time already
			// attributed to their own phases; counting it toward the
			// residual subtraction would double-subtract.
		default:
			attributed += v
		}
	}
	// Close the deferred span (if any) against the fold's end stamp,
	// reconstructed as start + total so snap needs no clock read.
	if c.deferT0 != 0 {
		if d := c.start + total - c.deferT0; d > 0 {
			p := c.deferPhase
			out[p] += d
			if p != PhaseUser && p != PhaseExecRun {
				attributed += d
			}
		}
		c.deferT0 = 0
	}
	user := total - attributed
	if user < 0 {
		user = 0
	}
	out[PhaseUser] = user
}

// PhaseProfile folds completed transaction breakdowns into per-phase
// striped histograms split by execution path and outcome. One fold is
// a handful of Hist.Observe calls (total + each non-zero phase), all
// lock-free and allocation-free.
type PhaseProfile struct {
	total [NumPaths][NumOutcomes]Hist
	phase [NumPaths][NumOutcomes][NumPhases]Hist
}

// TxnPhases is the process-global phase profile. Like the tracer and
// latch profiles it is global rather than per-engine: phase time is
// fed from subsystems (buffer, WAL, DORA executors) that have no
// engine handle, and the live surface wants one merge point.
var TxnPhases PhaseProfile

// Fold records one completed transaction: total wall nanoseconds plus
// the clock's per-phase laps. phases, when non-nil, receives the
// folded breakdown (including the computed user residual) so the
// caller can hand the same numbers to the slow-transaction reservoir
// without re-reading the clock.
func (pp *PhaseProfile) Fold(path TxnPath, oc TxnOutcome, c *PhaseClock, total int64, phases *[NumPhases]int64) {
	if path >= NumPaths || oc >= NumOutcomes || total < 0 {
		return
	}
	var local [NumPhases]int64
	if phases == nil {
		phases = &local
	}
	c.snap(total, phases)
	si := stripeIdx() // one stripe choice for the whole fold
	pp.total[path][oc].observeAt(si, total)
	for i := range phases {
		if phases[i] > 0 {
			pp.phase[path][oc][i].observeAt(si, phases[i])
		}
	}
}

// PhaseSnapshot is one (path, outcome) cell of the profile, merged
// into plain hist.H values. Count is the transaction count, derived
// from the total histogram (every fold observes exactly one total),
// sparing the fold a separate counter update.
type PhaseSnapshot struct {
	Count uint64
	Total hist.H
	Phase [NumPhases]hist.H
}

// Snapshot merges one (path, outcome) cell.
func (pp *PhaseProfile) Snapshot(path TxnPath, oc TxnOutcome) PhaseSnapshot {
	var s PhaseSnapshot
	if path >= NumPaths || oc >= NumOutcomes {
		return s
	}
	s.Total = pp.total[path][oc].Snapshot()
	s.Count = s.Total.Count()
	for i := range s.Phase {
		s.Phase[i] = pp.phase[path][oc][i].Snapshot()
	}
	return s
}

// --- worst-K slow-transaction reservoir ---

const (
	// SlowK is the reservoir capacity per window: the K slowest
	// transactions of the current and previous windows are retained.
	SlowK = 32
	// slowTraceCap bounds the events captured per slow transaction
	// when the tracer is enabled.
	slowTraceCap = 32
	// slowWindowNs is the reservoir rotation period (10 s): /slow
	// always covers between one and two windows of recent history.
	slowWindowNs = int64(10e9)
)

// SlowTxn is one retained slow transaction.
type SlowTxn struct {
	Txn     uint64
	Path    TxnPath
	Outcome TxnOutcome
	Start   int64 // monotonic ns since TimeBase()
	Total   int64 // wall nanoseconds
	Phase   [NumPhases]int64
	Trace   []Event // nil unless the tracer was enabled at capture

	traceBuf [slowTraceCap]Event
}

// slowWindow is one reservoir window: a fixed array ordered so that
// entries[0..n) are valid and minIdx points at the cheapest entry
// (the eviction victim).
type slowWindow struct {
	start   int64 // window open time (monotonic ns)
	n       int
	entries [SlowK]SlowTxn
}

// minOf returns the index of the smallest-total entry.
func (w *slowWindow) minOf() int {
	m := 0
	for i := 1; i < w.n; i++ {
		if w.entries[i].Total < w.entries[m].Total {
			m = i
		}
	}
	return m
}

// SlowReservoir retains the K slowest transactions per rotation
// window (plus the previous window, so a fresh rotation never shows
// an empty tail). Admission from the transaction-finish hot path is
// two atomic loads and a compare; only admitted transactions — by
// construction the rarest, slowest ones — take the mutex.
type SlowReservoir struct {
	// floor is the admission threshold: the smallest total in the
	// current window once it is full, else 0. Monotone within a
	// window, reset on rotation.
	floor atomic.Int64
	// winStart mirrors cur.start so the rotation check is lock-free.
	winStart atomic.Int64

	admitted Counter // transactions admitted (reservoir inserts)
	rotated  Counter // window rotations

	mu   sync.Mutex
	cur  slowWindow
	prev slowWindow
}

// SlowTxns is the process-global slow-transaction reservoir.
var SlowTxns SlowReservoir

// Offer presents one completed transaction. end is the finish stamp
// (monotonic ns), total the wall nanoseconds, phases the folded
// breakdown. Fast path: one atomic load + compare when the
// transaction is not tail-worthy.
func (r *SlowReservoir) Offer(txn uint64, path TxnPath, oc TxnOutcome, end, total int64, phases *[NumPhases]int64) {
	if ws := r.winStart.Load(); end-ws > slowWindowNs {
		r.rotate(end)
	}
	if total <= r.floor.Load() {
		return
	}
	r.admit(txn, path, oc, end, total, phases)
}

// rotate swaps the current window into prev and opens a fresh one.
func (r *SlowReservoir) rotate(now int64) {
	r.mu.Lock()
	if now-r.cur.start > slowWindowNs { // re-check under the lock
		r.prev = r.cur
		r.cur.n = 0
		r.cur.start = now
		r.winStart.Store(now)
		r.floor.Store(0)
		r.rotated.Inc()
	}
	r.mu.Unlock()
}

// admit inserts the transaction, evicting the cheapest entry when the
// window is full, and captures its event trace if the tracer is on.
func (r *SlowReservoir) admit(txn uint64, path TxnPath, oc TxnOutcome, end, total int64, phases *[NumPhases]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := &r.cur
	var e *SlowTxn
	if w.n < SlowK {
		e = &w.entries[w.n]
		w.n++
	} else {
		m := w.minOf()
		if total <= w.entries[m].Total {
			return // raced: another admit raised the floor past us
		}
		e = &w.entries[m]
	}
	e.Txn, e.Path, e.Outcome = txn, path, oc
	e.Start, e.Total = end-total, total
	e.Phase = *phases
	e.Trace = nil
	if Trace.Enabled() && txn != 0 {
		e.Trace = Trace.CollectTxn(txn, e.traceBuf[:0])
	}
	r.admitted.Inc()
	if w.n == SlowK {
		r.floor.Store(w.entries[w.minOf()].Total)
	}
}

// SlowSnapshot is the /slow dump: retained entries sorted slowest
// first, plus reservoir bookkeeping.
type SlowSnapshot struct {
	Admitted uint64
	Rotated  uint64
	WindowNs int64
	Entries  []SlowTxn
}

// Snapshot returns the retained slow transactions (current + previous
// window), slowest first. Trace slices are re-based onto the copies.
func (r *SlowReservoir) Snapshot() SlowSnapshot {
	r.mu.Lock()
	out := make([]SlowTxn, 0, r.cur.n+r.prev.n)
	for _, w := range []*slowWindow{&r.cur, &r.prev} {
		for i := 0; i < w.n; i++ {
			out = append(out, w.entries[i])
		}
	}
	r.mu.Unlock()
	for i := range out {
		if out[i].Trace != nil {
			out[i].Trace = out[i].traceBuf[:len(out[i].Trace)]
		}
	}
	// Insertion sort, slowest first: at most 2*SlowK entries.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Total > out[j-1].Total; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return SlowSnapshot{
		Admitted: r.admitted.Load(),
		Rotated:  r.rotated.Load(),
		WindowNs: slowWindowNs,
		Entries:  out,
	}
}

// Admitted returns the cumulative number of reservoir inserts.
func (r *SlowReservoir) Admitted() uint64 { return r.admitted.Load() }

// Rotations returns the cumulative number of window rotations.
func (r *SlowReservoir) Rotations() uint64 { return r.rotated.Load() }
