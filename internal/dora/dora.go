// Package dora implements Data-ORiented Architecture transaction
// execution: instead of assigning a worker thread to a transaction
// and letting it roam over shared data through the centralized lock
// manager ("thread-to-transaction"), the key space of every table is
// split into logical partitions, each owned by exactly one executor
// goroutine ("thread-to-data"). A transaction is decomposed into
// actions, each routed to the executor owning the data it touches.
// Because an executor serializes all work on its partition, no
// lock-table interaction is needed at all — the decoupling of
// transaction data access from process assignment the paper calls
// for.
//
// Two execution paths share the machinery:
//
//   - Single-partition fast path: when every action of the transaction
//     routes to one executor (the bulk of OLTP), the whole transaction
//     ships as ONE job. The owning executor runs begin→actions→commit
//     back to back — the transaction is one indivisible
//     partition-local critical section. The executor appends the
//     commit record and moves on (core.Txn.CommitAsync); only the
//     coordinator blocks on group-commit durability (CommitWait), so
//     executors never stall on a flush.
//
//   - Cross-partition path: the coordinator claims every executor the
//     transaction's actions route to, one at a time in ascending
//     executor id. A claim is an inbox job: the executor acknowledges
//     it and parks until released, so while the coordinator holds it
//     nothing else runs on that partition. The coordinator then runs
//     the actions itself, in phase order, appends the commit record,
//     releases the claims (partition-level early lock release) and
//     only then waits for durability.
//
// Durability: a transaction that logged nothing may have read what an
// earlier one committed on its partitions and released before the
// flush. Each executor keeps a mark, the commit LSN + 1 of the last
// write committed on its partition; a read-only transaction's reply
// carries the marks of the partitions it held, and its coordinator
// waits for the durable frontier to pass them
// (core.Engine.WaitReadsDurable), as it does for a writer's commit.
//
// Isolation: a cross-partition transaction holds each partition it
// touches from before its first action until its commit record is
// appended — strict two-phase locking at partition granularity, with
// no lock table anywhere. Deadlock cannot arise: a coordinator waits
// only for executors above every executor it already holds, so no
// cycle of waits can form, and no timeout is needed to break one.
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
	// Fn runs while the transaction holds the executor owning Key: on
	// that executor for a single-partition transaction, on the calling
	// goroutine for a cross-partition one. It must confine its data
	// access to keys that route identically to Key (same table, same
	// key family under Options.RouteShift).
	Fn func(tx *core.Txn) error
}

// Phase is a set of actions with no mutual dependencies. Phases run
// in order, so an action may use what an earlier phase produced.
type Phase []Action

// Options configures a DORA engine.
type Options struct {
	// Executors is the number of partition-owning goroutines.
	// Default GOMAXPROCS-style 8.
	Executors int
	// QueueDepth is each executor's inbox capacity. Default 128.
	QueueDepth int
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
	singleTxns  obs.Counter // transactions shipped whole (fast path)
	crossTxns   obs.Counter // transactions through the coordinator
	batches     obs.Counter // executor drain batches
	batchedJobs obs.Counter // jobs moved by those batches
	service     obs.Hist    // action body runtime
	wait        obs.Hist    // enqueue -> dispatch inbox delay
}

type jobKind uint8

const (
	// jobTxn is a whole single-partition transaction (fast path).
	jobTxn jobKind = iota
	// jobClaim parks the executor for a cross-partition coordinator
	// until it signals the executor's release channel.
	jobClaim
)

// job is one executor inbox message. It carries the pooled txnCtx,
// which is safe because the coordinator cannot recycle the context
// before the executor has replied on it, and the executor touches it
// no more after replying.
type job struct {
	kind   jobKind
	ctx    *txnCtx
	fn     func(tx *core.Txn) error // single-action jobTxn
	phases []Phase                  // multi-action jobTxn payload
	enq    int64                    // obs.Now() at enqueue (wait hist)
}

type executor struct {
	queue *sync2.Queue[job]
	// release ends a claim: the coordinator holding this executor sends
	// one token, which the parked executor takes. It is not an inbox
	// message because a parked executor is not draining its inbox, and
	// it belongs to the executor rather than the context so a token can
	// only ever wake the executor it was meant for.
	release chan struct{}
	// mark is the durability target (commit LSN + 1) of the last write
	// committed on the partition: what a read there may depend on.
	// Only the partition's holder touches it — the executor, or a
	// coordinator while it claims the executor — and the claim's
	// acknowledgement and release order the two.
	mark uint64
}

// txnCtx is the pooled per-transaction coordination block. One lives
// for the duration of one Exec call and is recycled through the
// engine's pool. Every job sent with it is answered by exactly one
// send on wake — a claim's acknowledgement, or the fast path's result
// — and the coordinator receives each answer before it sends the next
// job or recycles the context.
type txnCtx struct {
	tx   *core.Txn
	wake chan struct{} // cap 1

	// Fast-path reply, written by the owning executor before its wake
	// send (which publishes the writes).
	err       error
	commitLSN wal.LSN
	dep       uint64 // a read-only commit's executor mark

	touched []uint64 // executor bitmask (cross path)
}

// ErrClosed is returned by Exec after Close. A transaction that was in
// flight when the engine closed is aborted cleanly.
var ErrClosed = errors.New("dora: engine closed")

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
		ex := &executor{
			queue:   sync2.NewQueue[job](opts.QueueDepth),
			release: make(chan struct{}, 1),
		}
		d.exec = append(d.exec, ex)
		d.wg.Add(1)
		go d.run(ex)
	}
	register(d)
	return d
}

// run is one executor's loop: drain the inbox in batches and serve
// each job in order, until the inbox is closed and empty.
func (d *Engine) run(ex *executor) {
	defer d.wg.Done()
	buf := make([]job, 0, d.opts.QueueDepth)
	for {
		var ok bool
		buf, ok = ex.queue.Drain(buf[:0])
		if !ok {
			return
		}
		d.batches.Inc()
		d.batchedJobs.Add(uint64(len(buf)))
		now := obs.Now()
		for i := range buf {
			j := buf[i]
			buf[i] = job{} // drop refs; the batch buffer is reused
			d.wait.ObserveNanos(now - j.enq)
			if j.kind == jobClaim {
				// The coordinator times its own claims; after the
				// acknowledgement the context is no longer ours.
				j.ctx.wake <- struct{}{}
				<-ex.release
				now = obs.Now() // the jobs behind the claim waited for it too
				continue
			}
			// The same stamp feeds the transaction's phase clock: inbox
			// delay is DORA's queue-wait phase.
			j.ctx.tx.Clock().Add(obs.PhaseQueueWait, now-j.enq)
			d.runWhole(ex, j)
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
	c.err = nil
	c.commitLSN = wal.NilLSN
	c.dep = 0
	clear(c.touched)
	return c
}

// putCtx recycles c. Only legal once every job sent with c has been
// answered: no executor may still hold a reference.
func (d *Engine) putCtx(c *txnCtx) {
	c.tx = nil
	invariant.PoolPut("dora.putCtx", c)
	d.ctxPool.Put(c)
}

// touch marks executor id in the context's bitmask.
func (c *txnCtx) touch(id int) {
	c.touched[id>>6] |= 1 << (uint(id) & 63)
}

// Exec runs a decomposed transaction. A transaction confined to one
// executor ships whole (fast path); otherwise the calling goroutine
// claims every executor involved and runs the phases itself. The
// transaction commits when every action succeeded and aborts
// otherwise.
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
	if !single {
		return d.execCross(phases)
	}
	if n == 1 {
		for _, ph := range phases {
			if len(ph) == 1 {
				return d.ExecSingle(ph[0])
			}
		}
	}
	return d.runWholeTxn(home, job{kind: jobTxn, phases: phases})
}

// ExecSingle is the fast path for one-action transactions (the bulk
// of OLTP): the action ships as a whole-transaction job with no
// phase-slice indirection and no allocation beyond the pools.
func (d *Engine) ExecSingle(a Action) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.runWholeTxn(d.Route(a.Table, a.Key), job{kind: jobTxn, fn: a.Fn})
}

// runWholeTxn submits a whole single-partition transaction to its
// owning executor and waits for the reply. The executor runs every
// action and the commit-record append, or the abort; the coordinator
// only waits for durability (CommitWait, or for a read-only commit
// what it read), keeping the executor free to serve its partition
// while the group commit flushes.
func (d *Engine) runWholeTxn(home int, j job) error {
	c := d.getCtx()
	c.tx = d.core.Begin(core.Intent{Owned: obs.PathDoraSingle})
	tx := c.tx
	j.ctx = c
	j.enq = obs.Now()
	if !d.exec[home].queue.Put(j) {
		// Closed before the job was accepted; nothing ran.
		d.putCtx(c)
		return abortAfter(tx, ErrClosed)
	}
	d.singleTxns.Inc()
	<-c.wake
	err, lsn, dep := c.err, c.commitLSN, c.dep
	d.putCtx(c)
	return d.durable(tx, lsn, dep, err)
}

// runWhole executes a single-partition transaction end to end on its
// executor ex: all actions, then the commit-record append, or a full
// abort on failure. Either way the core transaction is retired here
// but for the durability wait the reply owes: a write raises ex's mark
// to its commit, and a read-only commit takes the mark into the reply.
func (d *Engine) runWhole(ex *executor, j job) {
	c := j.ctx
	var err error
	if j.fn != nil {
		err = d.runAction(j.fn, c.tx)
	} else {
		err = d.runPhases(j.phases, c.tx)
	}
	c.commitLSN, c.err = commitAsync(c.tx, err)
	if c.commitLSN != wal.NilLSN {
		ex.mark = uint64(c.commitLSN) + 1
	}
	c.dep = ex.mark
	c.wake <- struct{}{}
}

// execCross coordinates a multi-partition transaction on the calling
// goroutine: claim the executors, run the actions, append the commit
// record (or abort), release the claims, and only then wait for
// durability — early lock release at partition granularity.
func (d *Engine) execCross(phases []Phase) error {
	c := d.getCtx()
	for _, ph := range phases {
		for _, a := range ph {
			c.touch(d.Route(a.Table, a.Key))
		}
	}
	tx := d.core.Begin(core.Intent{Owned: obs.PathDoraCross})
	d.crossTxns.Inc()
	start := obs.Now()
	err := d.claim(c)
	tx.Clock().Add(obs.PhaseQueueWait, obs.Now()-start)
	if err == nil {
		err = d.runPhases(phases, tx)
	}
	lsn, err := commitAsync(tx, err)
	dep := d.release(c, lsn)
	d.putCtx(c)
	return d.durable(tx, lsn, dep, err)
}

// claim takes every executor marked in c.touched, one at a time in
// ascending id order, waiting for each acknowledgement before asking
// for the next. If a closed inbox refuses a claim, c.touched is cut
// down to the executors already held and claim returns ErrClosed.
func (d *Engine) claim(c *txnCtx) error {
	for w, word := range c.touched {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			if !d.exec[id].queue.Put(job{kind: jobClaim, ctx: c, enq: obs.Now()}) {
				c.touched[w] &^= word
				clear(c.touched[w+1:])
				return ErrClosed
			}
			<-c.wake
			word &= word - 1
		}
	}
	return nil
}

// release ends the claims on every executor marked in c.touched,
// first raising each one's mark to lsn's if the transaction committed
// writes there (lsn not NilLSN). It returns the highest mark: what the
// transaction may have read.
func (d *Engine) release(c *txnCtx, lsn wal.LSN) (dep uint64) {
	for w, word := range c.touched {
		for word != 0 {
			ex := d.exec[w<<6+bits.TrailingZeros64(word)]
			if lsn != wal.NilLSN {
				ex.mark = uint64(lsn) + 1
			}
			dep = max(dep, ex.mark)
			ex.release <- struct{}{}
			word &= word - 1
		}
	}
	return dep
}

// runPhases runs every action of phases in order on tx and stops at
// the first failure.
func (d *Engine) runPhases(phases []Phase, tx *core.Txn) error {
	for _, ph := range phases {
		for _, a := range ph {
			if err := d.runAction(a.Fn, tx); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAction times and counts one action body. The service stamp also
// feeds the transaction's exec-run phase (an overlay over whatever
// lock/latch/IO phases the body itself attributes).
func (d *Engine) runAction(fn func(*core.Txn) error, tx *core.Txn) error {
	start := obs.Now()
	err := fn(tx)
	dur := obs.Now() - start
	d.service.ObserveNanos(dur)
	tx.Clock().Add(obs.PhaseExecRun, dur)
	d.executed.Inc()
	return err
}

// commitAsync ends a transaction body: it appends the commit record
// when err is nil and rolls tx back otherwise, or when the append
// fails. What is left is the durability wait a returned LSN other
// than NilLSN owes (NilLSN with a nil error: read-only, fully
// committed).
func commitAsync(tx *core.Txn, err error) (wal.LSN, error) {
	if err == nil {
		lsn, cerr := tx.CommitAsync()
		if cerr == nil {
			return lsn, nil
		}
		err = cerr // the transaction is still active
	}
	return wal.NilLSN, abortAfter(tx, err)
}

// abortAfter rolls tx back because of err and returns what the caller
// reports: err, or both errors when the rollback failed too.
func abortAfter(tx *core.Txn, err error) error {
	if aerr := tx.Abort(); aerr != nil {
		return fmt.Errorf("dora: abort after %v: %w", err, aerr)
	}
	return err
}

// durable finishes a split commit on the coordinator: what commitAsync
// left of it (lsn, err), dep being the marks of the executors the
// transaction held. A write waits for its commit record (CommitWait;
// like every core commit call, one that fails leaves the transaction
// active, so it is aborted here rather than leaked), a read-only
// commit for what it read: never on an executor, which does not wait
// for a flush.
func (d *Engine) durable(tx *core.Txn, lsn wal.LSN, dep uint64, err error) error {
	switch {
	case err != nil:
		return err
	case lsn == wal.NilLSN:
		return d.core.WaitReadsDurable(dep, nil) // tx is retired
	}
	if err := tx.CommitWait(lsn); err != nil {
		return abortAfter(tx, err)
	}
	return nil
}

// Close stops the executors. In-flight Exec calls complete or return
// ErrClosed; every accepted job is served before the executors exit.
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
