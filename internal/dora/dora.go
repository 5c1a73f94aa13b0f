// Package dora implements Data-ORiented Architecture transaction
// execution: instead of assigning a worker thread to a transaction
// and letting it roam over shared data through the centralized lock
// manager ("thread-to-transaction"), the key space of every table is
// split into logical partitions, each owned by exactly one executor
// goroutine ("thread-to-data"). A transaction is decomposed into
// actions, each routed to the executor owning the data it touches;
// rendezvous points separate phases whose actions depend on earlier
// results. Because an executor serializes all actions on its
// partition, no lock-table interaction is needed at all — the
// decoupling of transaction data access from process assignment the
// paper calls for.
//
// Two execution paths share the machinery:
//
//   - Single-partition fast path: when every action of the transaction
//     routes to one executor (the bulk of OLTP), the whole transaction
//     ships as ONE job. The owning executor runs begin→actions→commit
//     back to back with no lock registration at all — the transaction
//     is one indivisible partition-local critical section, and its
//     "locks" vanish the moment it finishes, with no release
//     round-trip. The executor appends the commit record and releases
//     immediately (core.Txn.CommitAsync); only the coordinator blocks
//     on group-commit durability (CommitWait), so executors never
//     stall on a flush.
//
//   - Cross-partition path: each phase's actions fan out to their
//     executors and a pooled countdown rendezvous (atomic pending
//     count + one reusable wake channel) joins them — no per-phase
//     channel or timer allocation.
//
// Isolation: each executor keeps a *local* lock table over its
// routing keys (see locallock.go) and holds a cross-partition
// transaction's keys until its commit or abort, so arbitrary
// multi-phase transactions are serializable — strict two-phase
// locking at partition granularity, with no shared lock-manager state
// whatsoever. Cross-partition deadlocks are broken by the
// coordinator's rendezvous timeout.
//
// Executor inboxes are bounded sync2.Queues drained in batches (the
// WAL flusher's kick-coalescing pattern): a hot partition pays one
// consumer wakeup per backlog, not per action.
package dora

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/core"
	"hydra/internal/invariant"
	"hydra/internal/obs"
	"hydra/internal/sync2"
	"hydra/internal/wal"
)

// Action is one unit of a decomposed transaction: work against a
// single routing key of a single table.
type Action struct {
	// Table routes the action (with Key) to an executor.
	Table *core.Table
	// Key is the routing key: the primary key the action touches.
	Key uint64
	// Fn runs on the owning executor. It must confine its data access
	// to keys that route identically to Key (same table, same key
	// family under Options.RouteShift).
	Fn func(tx *core.Txn) error
}

// Phase is a set of actions with no mutual dependencies; a rendezvous
// point follows each phase.
type Phase []Action

// Options configures a DORA engine.
type Options struct {
	// Executors is the number of partition-owning goroutines.
	// Default GOMAXPROCS-style 8.
	Executors int
	// QueueDepth is each executor's inbox capacity. Default 128.
	QueueDepth int
	// LockTimeout bounds an action's wait for a partition-local lock;
	// expiry cancels the transaction (the cross-partition deadlock
	// breaker). Default 2s.
	LockTimeout time.Duration
	// RouteShift coarsens routing: keys are shifted right by this
	// many bits before hashing, so each partition owns aligned key
	// families of size 2^RouteShift. Workloads whose transactions
	// scan a small aligned range (e.g. TATP call-forwarding rows of
	// one subscriber) set it so the whole range co-locates. Default 0.
	RouteShift uint
}

func (o *Options) fill() {
	if o.Executors <= 0 {
		o.Executors = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.LockTimeout <= 0 {
		o.LockTimeout = 2 * time.Second
	}
}

// Engine dispatches decomposed transactions over partition executors.
type Engine struct {
	core *core.Engine
	opts Options
	exec []*executor

	closed  atomic.Bool
	wg      sync.WaitGroup
	ctxPool sync.Pool // *txnCtx, sized for this engine's executor count

	executed    obs.Counter // actions executed
	rvps        obs.Counter // rendezvous points crossed (cross path)
	localWaits  obs.Counter // jobs parked on a partition-local lock
	timeouts    obs.Counter // transactions canceled at a rendezvous
	singleTxns  obs.Counter // transactions shipped whole (fast path)
	crossTxns   obs.Counter // transactions through the coordinator
	batches     obs.Counter // executor drain batches
	batchedJobs obs.Counter // jobs moved by those batches
	service     obs.Hist    // action body runtime on the executor
	wait        obs.Hist    // enqueue -> dispatch inbox delay
}

type jobKind uint8

const (
	// jobAction is one action of a cross-partition transaction.
	jobAction jobKind = iota
	// jobTxn is a whole single-partition transaction (fast path).
	jobTxn
	// jobRelease surrenders tid's partition-local locks.
	jobRelease
	// jobCancel sweeps tid's parked jobs out of the waiting lists.
	jobCancel
)

// job is one executor inbox message. Control messages (release,
// cancel) carry only the stable core-transaction id, never the pooled
// txnCtx: a late control message must not be able to alias a recycled
// context. Data jobs (action, txn) do carry ctx — safe because the
// coordinator cannot recycle it until every data job has replied.
type job struct {
	kind   jobKind
	ctx    *txnCtx
	tid    uint64                   // core txn id: lock-table identity
	key    lockKey                  // jobAction, or single-action jobTxn
	fn     func(tx *core.Txn) error // jobAction, or single-action jobTxn
	phases []Phase                  // multi-action jobTxn payload
	enq    int64                    // obs.Now() at enqueue (wait hist)
}

type executor struct {
	id    int
	queue *sync2.Queue[job]
}

// txnCtx is the pooled per-transaction coordination block. One lives
// for the duration of one Exec call and is recycled through the
// engine's pool; the countdown protocol below makes recycling safe.
//
// Rendezvous lifecycle: the coordinator sets pending to the number of
// outstanding jobs before submitting them; every job replies exactly
// once (by running, by being swept on cancel, or by the executor's
// exit sweep), and the replier that decrements pending to zero sends
// on wake. The coordinator blocks on wake — even after a timeout — so
// by the time it proceeds, no executor holds a reference to the
// context and it can go back in the pool.
type txnCtx struct {
	tx       *core.Txn
	canceled atomic.Bool
	pending  atomic.Int32
	wake     chan struct{} // cap 1; signaled on the 1->0 transition

	// errMu guards firstErr on the cross path, where several executors
	// and a coordinator timeout may report concurrently.
	errMu    sync.Mutex
	firstErr error

	// Fast-path reply, written by the single owning executor before
	// its countdown decrement (the wake send publishes the writes).
	commitLSN wal.LSN
	finished  bool // executor already committed/aborted the core txn

	touched []uint64    // executor bitmask (cross path)
	timer   *time.Timer // reused across phases and transactions
}

// Errors returned by Exec.
var (
	// ErrClosed is returned after Close. A transaction that was
	// in flight when the engine closed is aborted cleanly.
	ErrClosed = errors.New("dora: engine closed")
	// ErrTimeout cancels a transaction whose action waited too long
	// for a partition-local lock (the deadlock breaker).
	ErrTimeout = errors.New("dora: local lock wait timed out")
	// errCanceled is delivered to parked actions of a transaction the
	// coordinator already gave up on.
	errCanceled = errors.New("dora: transaction canceled")
)

// New starts the executor set over a core engine.
func New(c *core.Engine, opts Options) *Engine {
	opts.fill()
	d := &Engine{core: c, opts: opts}
	words := (opts.Executors + 63) / 64
	d.ctxPool.New = func() any {
		return &txnCtx{
			wake:    make(chan struct{}, 1),
			touched: make([]uint64, words),
		}
	}
	for i := 0; i < opts.Executors; i++ {
		ex := &executor{id: i, queue: sync2.NewQueue[job](opts.QueueDepth)}
		d.exec = append(d.exec, ex)
		d.wg.Add(1)
		go d.run(ex)
	}
	register(d)
	return d
}

// run is one executor's loop: drain the inbox in batches, dispatch
// each job, and on close sweep every parked job so no coordinator is
// left counting down forever.
func (d *Engine) run(ex *executor) {
	defer d.wg.Done()
	ls := newLocalState()
	buf := make([]job, 0, d.opts.QueueDepth)
	for {
		var ok bool
		buf, ok = ex.queue.Drain(buf[:0])
		if len(buf) > 0 {
			d.batches.Inc()
			d.batchedJobs.Add(uint64(len(buf)))
			now := obs.Now()
			for i := range buf {
				j := buf[i]
				buf[i] = job{} // drop refs; the batch buffer is reused
				if j.kind == jobAction || j.kind == jobTxn {
					d.wait.ObserveNanos(now - j.enq)
					// The same stamp feeds the transaction's phase
					// clock: inbox delay is DORA's queue-wait phase.
					j.ctx.tx.Clock().Add(obs.PhaseQueueWait, now-j.enq)
				}
				d.dispatch(ls, j)
			}
		}
		if !ok {
			d.sweepAll(ls)
			return
		}
	}
}

// Route returns the executor index owning (table, key). Partitioning
// is by hash of the key family (key >> RouteShift), so a table's rows
// spread across all executors while aligned families co-locate.
func (d *Engine) Route(table *core.Table, key uint64) int {
	h := (uint64(table.ID)<<32 ^ (key >> d.opts.RouteShift)) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(d.exec)))
}

// getCtx draws a recycled coordination block from the pool.
func (d *Engine) getCtx() *txnCtx {
	c := d.ctxPool.Get().(*txnCtx)
	invariant.PoolGot("dora.getCtx", c)
	c.canceled.Store(false)
	c.firstErr = nil
	c.commitLSN = wal.NilLSN
	c.finished = false
	clear(c.touched)
	return c
}

// putCtx recycles c. Only legal once pending has drained to zero: no
// executor may still hold a reference.
func (d *Engine) putCtx(c *txnCtx) {
	c.tx = nil
	invariant.PoolPut("dora.putCtx", c)
	d.ctxPool.Put(c)
}

// arm starts (or restarts) the context's reusable timeout timer.
func (c *txnCtx) arm(d time.Duration) <-chan time.Time {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	return c.timer.C
}

func (c *txnCtx) setErr(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

func (c *txnCtx) loadErr() error {
	c.errMu.Lock()
	err := c.firstErr
	c.errMu.Unlock()
	return err
}

// actionDone reports one cross-path action's outcome; the reply that
// empties the countdown wakes the coordinator. The buffered send
// never blocks: at most one zero transition happens per armed phase.
func (c *txnCtx) actionDone(err error) {
	if err != nil {
		c.setErr(err)
	}
	if c.pending.Add(-1) == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// wholeDone is the fast path's single authoritative reply. finished
// reports whether the executor retired the core transaction itself
// (commit or abort); if not, the coordinator still owns an active
// transaction and must abort it. lsn carries the commit record
// position when the coordinator owes a durability wait.
func (c *txnCtx) wholeDone(err error, finished bool, lsn wal.LSN) {
	c.firstErr = err
	c.finished = finished
	c.commitLSN = lsn
	if c.pending.Add(-1) == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// touch marks executor id in the context's bitmask.
func (c *txnCtx) touch(id int) {
	c.touched[id>>6] |= 1 << (uint(id) & 63)
}

// forEachTouched visits the marked executor ids in ascending order.
func (c *txnCtx) forEachTouched(fn func(id int)) {
	for w, word := range c.touched {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Exec runs a decomposed transaction. A transaction confined to one
// executor ships whole (fast path); otherwise each phase's actions
// execute in parallel on their owning executors with a rendezvous
// point (barrier) between phases. The transaction commits when every
// phase succeeded and aborts otherwise.
func (d *Engine) Exec(phases []Phase) error {
	if d.closed.Load() {
		return ErrClosed
	}
	home, n := -1, 0
	single := true
	for _, ph := range phases {
		for _, a := range ph {
			id := d.Route(a.Table, a.Key)
			if home == -1 {
				home = id
			} else if id != home {
				single = false
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if single {
		if n == 1 {
			for _, ph := range phases {
				if len(ph) == 1 {
					return d.ExecSingle(ph[0])
				}
			}
		}
		return d.runWholeTxn(home, job{kind: jobTxn, phases: phases}, n)
	}
	return d.execCross(phases)
}

// ExecSingle is the fast path for one-action transactions (the bulk
// of OLTP): the action ships as a whole-transaction job with no
// phase-slice indirection and no allocation beyond the pools.
func (d *Engine) ExecSingle(a Action) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.runWholeTxn(d.Route(a.Table, a.Key), job{
		kind: jobTxn,
		key:  lockKey{table: a.Table.ID, key: a.Key},
		fn:   a.Fn,
	}, 1)
}

// runWholeTxn submits a whole single-partition transaction to its
// owning executor and waits for the authoritative reply. The executor
// runs every action and the commit-record append; the coordinator
// only waits for durability (CommitWait), keeping the executor free
// to serve its partition while the group commit flushes.
func (d *Engine) runWholeTxn(home int, j job, n int) error {
	c := d.getCtx()
	c.tx = d.core.Begin(core.Intent{Owned: obs.PathDoraSingle})
	tx := c.tx
	c.pending.Store(1)
	j.ctx = c
	j.tid = tx.ID()
	j.enq = obs.Now()
	if !d.exec[home].queue.Put(j) {
		// Closed before the job was accepted; nothing ran.
		d.putCtx(c)
		return abortAfter(tx, ErrClosed)
	}
	d.singleTxns.Inc()
	timeoutC := c.arm(d.opts.LockTimeout)
	timedOut := false
	for done := false; !done; {
		select {
		case <-c.wake:
			done = true
		case <-timeoutC:
			// The job is likely parked behind a cross-partition
			// holder. Mark the transaction canceled and sweep: if the
			// job is still parked (or queued) the executor replies
			// canceled; if it already started, it runs to completion
			// and the reply reports what actually happened.
			c.canceled.Store(true)
			d.timeouts.Inc()
			timedOut = true
			d.exec[home].queue.Put(job{kind: jobCancel, tid: j.tid})
			timeoutC = nil
		}
	}
	c.timer.Stop()
	err := c.firstErr
	finished := c.finished
	lsn := c.commitLSN
	d.putCtx(c)
	if err != nil {
		if !finished {
			err = abortAfter(tx, err)
		}
		if timedOut && errors.Is(err, errCanceled) {
			return fmt.Errorf("%w (single-partition txn of %d actions)", ErrTimeout, n)
		}
		return err
	}
	if lsn != wal.NilLSN {
		return commitWait(tx, lsn)
	}
	return nil // read-only: the executor committed it fully
}

// abortAfter rolls tx back because of err and returns what the caller
// reports: err, or both errors when the rollback failed too.
func abortAfter(tx *core.Txn, err error) error {
	if aerr := tx.Abort(); aerr != nil {
		return fmt.Errorf("dora: abort after %v: %w", err, aerr)
	}
	return err
}

// commitWait finishes a split commit on the coordinator. Like every
// core commit call, a CommitWait that fails leaves the transaction
// active, so it is aborted here rather than leaked.
func commitWait(tx *core.Txn, lsn wal.LSN) error {
	if err := tx.CommitWait(lsn); err != nil {
		return abortAfter(tx, err)
	}
	return nil
}

// execCross coordinates a multi-partition transaction: fan out each
// phase, join at the pooled countdown rendezvous, then split-commit —
// the commit record is appended and the partition locks surrendered
// before the durability wait (partition-level early lock release).
func (d *Engine) execCross(phases []Phase) error {
	c := d.getCtx()
	c.tx = d.core.Begin(core.Intent{Owned: obs.PathDoraCross})
	tx := c.tx
	tid := tx.ID()
	d.crossTxns.Inc()
	var result error
	for _, ph := range phases {
		if len(ph) == 0 {
			continue
		}
		c.pending.Store(int32(len(ph)))
		for i, a := range ph {
			id := d.Route(a.Table, a.Key)
			c.touch(id)
			ok := d.exec[id].queue.Put(job{
				kind: jobAction,
				ctx:  c,
				tid:  tid,
				key:  lockKey{table: a.Table.ID, key: a.Key},
				fn:   a.Fn,
				enq:  obs.Now(),
			})
			if !ok {
				// Engine closed mid-submission: account for this and
				// every unsent sibling ourselves so the countdown
				// still drains to zero.
				c.canceled.Store(true)
				for range ph[i:] {
					c.actionDone(ErrClosed)
				}
				break
			}
		}
		timeoutC := c.arm(d.opts.LockTimeout)
		for done := false; !done; {
			select {
			case <-c.wake:
				done = true
			case <-timeoutC:
				// Likely a cross-partition deadlock. Cancel the
				// transaction and sweep its parked actions out of the
				// executors' waiting lists: parked actions never
				// touched data, so removing them breaks the wait
				// cycle without exposing uncommitted state. Every
				// outstanding action then reports in — swept and
				// still-queued ones as canceled, running ones when
				// their body returns — so the countdown drains fully.
				// The timeout is recorded before the flag is raised: an
				// executor that sees the flag reports errCanceled, which
				// must not win the first-error slot.
				c.setErr(fmt.Errorf("%w (phase of %d actions)", ErrTimeout, len(ph)))
				c.canceled.Store(true)
				d.timeouts.Inc()
				c.forEachTouched(func(id int) {
					d.exec[id].queue.Put(job{kind: jobCancel, tid: tid})
				})
				timeoutC = nil
			}
		}
		c.timer.Stop()
		d.rvps.Inc()
		if err := c.loadErr(); err != nil {
			c.canceled.Store(true)
			result = err
			break
		}
	}
	if result == nil {
		lsn, err := tx.CommitAsync()
		switch {
		case err != nil:
			result = err // still active; abort below
		case lsn == wal.NilLSN:
			d.releaseTouched(c, tid) // read-only: fully committed
			d.putCtx(c)
			return nil
		default:
			// Commit record is in the log: surrender the partition
			// locks now, wait durability after (early lock release at
			// partition granularity).
			d.releaseTouched(c, tid)
			err := commitWait(tx, lsn)
			d.putCtx(c)
			return err
		}
	}
	result = abortAfter(tx, result)
	d.releaseTouched(c, tid)
	d.putCtx(c)
	return result
}

// releaseTouched surrenders the transaction's partition-local locks;
// parked actions of other transactions resume behind these control
// messages. A Put refused by a closing queue is fine: the executor's
// exit sweep cancels whatever was parked behind the locks.
func (d *Engine) releaseTouched(c *txnCtx, tid uint64) {
	c.forEachTouched(func(id int) {
		d.exec[id].queue.Put(job{kind: jobRelease, tid: tid})
	})
}

// Close stops the executors. In-flight Exec calls complete or return
// ErrClosed; every accepted job is drained before the executors exit.
func (d *Engine) Close() {
	if d.closed.Swap(true) {
		return
	}
	unregister(d)
	for _, ex := range d.exec {
		ex.queue.Close()
	}
	d.wg.Wait()
}
