package dora

import (
	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/wal"
)

// Per-partition local locking, the full DORA design: each executor
// owns a private lock table over its routing keys. A cross-partition
// action whose key is held by another transaction parks in the
// executor's waiting list — the executor itself never blocks — and
// runs when the holder commits or aborts (strict two-phase at
// partition granularity). Because local lock tables are touched by
// exactly one goroutine, they need no synchronization at all: the
// centralized lock-manager critical section simply ceases to exist.
//
// Whole single-partition transactions (jobTxn) never register in the
// table: they run only when every key they touch is free, execute
// atomically within one dispatch, and are gone before the executor
// looks at another job — implicit locks with zero bookkeeping and
// zero release traffic.
//
// The table is keyed by the stable core-transaction id, not by the
// pooled *txnCtx: ids are never reused, so a stale release or cancel
// message can at worst refer to a transaction that no longer owns
// anything, never to a recycled context.
//
// Cross-partition deadlocks (transaction A holds k1 waiting for k2
// while B holds k2 waiting for k1) cannot be seen by any single
// executor, so they are broken by timeout at the rendezvous point:
// the coordinator cancels the transaction, and its parked actions
// complete as no-ops when eventually dequeued.

// lockKey identifies a routing key within one executor.
type lockKey struct {
	table uint32
	key   uint64
}

// localState is an executor's private lock table. Accessed only by
// the owning goroutine.
type localState struct {
	owner   map[lockKey]uint64
	waiting map[lockKey][]job
	owned   map[uint64][]lockKey
}

func newLocalState() *localState {
	return &localState{
		owner:   make(map[lockKey]uint64),
		waiting: make(map[lockKey][]job),
		owned:   make(map[uint64][]lockKey),
	}
}

// dispatch handles one incoming job on the executor goroutine.
func (d *Engine) dispatch(ls *localState, j job) {
	switch j.kind {
	case jobAction:
		d.tryRun(ls, j)
	case jobTxn:
		d.runWhole(ls, j)
	case jobRelease:
		d.release(ls, j.tid)
	case jobCancel:
		d.cancelParked(ls, j.tid)
	}
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

// jobSwept replies for a job removed from a waiting list without
// running (cancel sweep or executor shutdown).
func jobSwept(w job, err error) {
	if w.kind == jobTxn {
		w.ctx.wholeDone(err, false, wal.NilLSN)
	} else {
		w.ctx.actionDone(err)
	}
}

// cancelParked removes every parked job of tid from the waiting
// lists, replying canceled for each. Parked jobs hold no locks and
// made no changes, so this is always safe — and it is the guarantee
// the regression tests pin: once swept, a canceled transaction's
// actions never execute.
func (d *Engine) cancelParked(ls *localState, tid uint64) {
	for k, queue := range ls.waiting {
		kept := queue[:0]
		for _, w := range queue {
			if w.tid == tid {
				jobSwept(w, errCanceled)
			} else {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(ls.waiting, k)
		} else {
			ls.waiting[k] = kept
		}
	}
}

// sweepAll cancels every parked job at executor shutdown, so no
// coordinator is left waiting on a countdown that can no longer
// drain. Runs after the inbox backlog has been fully dispatched.
func (d *Engine) sweepAll(ls *localState) {
	for k, queue := range ls.waiting {
		for _, w := range queue {
			jobSwept(w, ErrClosed)
		}
		delete(ls.waiting, k)
	}
}

// tryRun executes a cross-partition action now if its key is free or
// owned by the same transaction; otherwise it parks.
func (d *Engine) tryRun(ls *localState, j job) {
	if j.ctx.canceled.Load() {
		j.ctx.actionDone(errCanceled)
		return
	}
	if holder, held := ls.owner[j.key]; held && holder != j.tid {
		ls.waiting[j.key] = append(ls.waiting[j.key], j)
		d.localWaits.Inc()
		return
	}
	if _, held := ls.owner[j.key]; !held {
		ls.owner[j.key] = j.tid
		ls.owned[j.tid] = append(ls.owned[j.tid], j.key)
	}
	j.ctx.actionDone(d.runAction(j.fn, j.ctx.tx))
}

// blockedKey returns the first of the whole-transaction job's routing
// keys that another transaction holds, if any.
func blockedKey(ls *localState, j job) (lockKey, bool) {
	if j.fn != nil {
		if holder, held := ls.owner[j.key]; held && holder != j.tid {
			return j.key, true
		}
		return lockKey{}, false
	}
	for _, ph := range j.phases {
		for _, a := range ph {
			k := lockKey{table: a.Table.ID, key: a.Key}
			if holder, held := ls.owner[k]; held && holder != j.tid {
				return k, true
			}
		}
	}
	return lockKey{}, false
}

// runWhole executes a single-partition transaction end to end: all
// actions, then the commit-record append and immediate lock release
// (CommitAsync) — or a full abort on failure — all on the executor.
// The reply is authoritative: it tells the coordinator whether the
// core transaction was retired here and whether a durability wait is
// still owed.
func (d *Engine) runWhole(ls *localState, j job) {
	c := j.ctx
	if c.canceled.Load() {
		c.wholeDone(errCanceled, false, wal.NilLSN)
		return
	}
	// Every routing key must be free: the transaction's implicit locks
	// are the executor's undivided attention. If any key is held by a
	// cross-partition transaction, park on it and retry at release.
	if k, blocked := blockedKey(ls, j); blocked {
		ls.waiting[k] = append(ls.waiting[k], j)
		d.localWaits.Inc()
		return
	}
	tx := c.tx
	var err error
	if j.fn != nil {
		err = d.runAction(j.fn, tx)
	} else {
	run:
		for _, ph := range j.phases {
			for _, a := range ph {
				if err = d.runAction(a.Fn, tx); err != nil {
					break run
				}
			}
		}
	}
	if err == nil && c.canceled.Load() {
		// The coordinator timed out while we were queued or running;
		// honor the cancellation rather than committing behind it.
		err = errCanceled
	}
	if err != nil {
		// Roll back here, before touching any other job: the partition
		// must never see this transaction's uncommitted effects.
		c.wholeDone(abortAfter(tx, err), true, wal.NilLSN)
		return
	}
	lsn, cerr := tx.CommitAsync()
	if cerr != nil {
		c.wholeDone(abortAfter(tx, cerr), true, wal.NilLSN)
		return
	}
	// Committed (or, for NilLSN, fully finished read-only). The
	// coordinator completes the durability wait; this executor moves
	// straight to the next job.
	c.wholeDone(nil, true, lsn)
}

// release frees every key tid owns on this executor and runs any
// now-unblocked parked jobs.
func (d *Engine) release(ls *localState, tid uint64) {
	keys := ls.owned[tid]
	delete(ls.owned, tid)
	for _, k := range keys {
		if ls.owner[k] == tid {
			delete(ls.owner, k)
		}
	}
	// Drain waiters whose keys are now free. Running a waiter can
	// only lock keys, not release them, so one pass per freed key
	// suffices; waiters for still-held keys stay parked.
	for _, k := range keys {
		queue := ls.waiting[k]
		if len(queue) == 0 {
			delete(ls.waiting, k)
			continue
		}
		// Grant in FIFO order until a waiter of a different
		// transaction takes the lock.
		var rest []job
		for i, w := range queue {
			if holder, held := ls.owner[k]; held && holder != w.tid {
				rest = append(rest, queue[i:]...)
				break
			}
			if w.kind == jobTxn {
				d.runWhole(ls, w)
			} else {
				d.tryRun(ls, w)
			}
		}
		if len(rest) > 0 {
			ls.waiting[k] = rest
		} else {
			delete(ls.waiting, k)
		}
	}
}
