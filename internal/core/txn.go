package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"hydra/internal/btree"
	"hydra/internal/heap"
	"hydra/internal/invariant"
	"hydra/internal/lock"
	"hydra/internal/obs"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// undoEntry pairs a forward operation with the PrevLSN of its log
// record, which becomes the CLR's UndoNext during rollback.
type undoEntry struct {
	op   OpRecord
	prev wal.LSN
}

type txnState int

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

// Intent names what a transaction is for; Begin and Exec pick the
// concurrency-control mechanism from it and from Config.MVCC:
//
//	intent      Config.MVCC on                 Config.MVCC off
//	(zero)      2PL                            2PL
//	ReadOnly    MVCC snapshot, no locks        IS/S locks
//	Optimistic  snapshot isolation (si.go)     2PL (strictly stronger)
//	Owned       no locks: the caller owns the data, either way
//
// ReadOnly refuses writes with ErrReadOnlyTxn whichever mechanism
// serves it.
type Intent struct {
	ReadOnly   bool
	Optimistic bool
	// Owned, when non-zero, declares that the caller guarantees
	// isolation by construction (DORA: each datum is accessed only while
	// its partition's executor is held — by that executor, or by a
	// cross-partition coordinator that claimed it), so the lock manager
	// is skipped entirely.
	// The value is the phase-profile path the transaction folds under.
	Owned obs.TxnPath
}

// txnMode is the Intent a transaction began with plus the mechanism
// Begin resolved it to. It is set once, in Begin.
type txnMode struct {
	Intent
	// snapshot: reads resolve against the snapshot pinned at begin
	// with no lock traffic (snapshot.go) and writes buffer until Commit
	// validates first-committer-wins (si.go). A read-only snapshot
	// transaction is simply one whose write set stays empty.
	snapshot bool
}

// Txn is a transaction handle. A Txn is used by one goroutine at a
// time: DORA's fast path hands a partition-owned one to the owning
// executor and back, but nothing runs two of its operations at once.
// While it is in the engine's live registry (live.go), it holds a slot
// there, where a checkpoint reads its first LSN and the GC's oldest-pin
// recompute its pin and begin stamp.
//
// Handles are recycled through a per-engine pool: Begin draws a
// retired Txn (with its lock holder, undo slice, and encode scratch
// already allocated) and finish returns it. A handle must therefore
// never be used after Commit or Abort returns — it may already be
// another transaction. Nor may a missing-key error from Update be read
// after Commit (see Update).
type Txn struct {
	e     *Engine
	id    uint64
	state txnState
	mode  txnMode
	locks *lock.Holder // caller-owned lock set (see lock.Holder)

	// path tags which mechanism runs the transaction in the phase
	// profile; Begin derives it from mode.
	path obs.TxnPath

	// snap is the snapshot a snapshot-mode transaction pinned at begin
	// (0 otherwise); pinLow is the lowest one it tried (Engine.pin).
	// verTxn/verNodes track the versions a writing transaction installed
	// — commit and abort both stamp them (through the shared verTxn), and
	// abort additionally prunes the touched chains as it finishes.
	snap     uint64
	pinLow   uint64
	verTxn   *verTxn
	verNodes []*verNode
	// Snapshot-mode write buffering (see si.go): writes fold into
	// writeSet and reach the heap only inside Commit, after
	// first-committer-wins validation.
	writeSet map[verKey]siWrite
	siKeys   []verKey // insertion-ordered writeSet keys (scan overlay, commit sort scratch)
	// clock accumulates the transaction's critical-path breakdown. It
	// lives by value so a pooled handle's clock costs no allocation;
	// its address is stable for the handle's lifetime, which lets the
	// lock holder and DORA executors keep a pointer to it.
	clock obs.PhaseClock

	// slot is the live-registry slot the transaction holds, or the one
	// the handle last held: join tries it first. lastLSN is its newest
	// record, NilLSN while it has logged nothing.
	slot    *liveSlot
	lastLSN wal.LSN
	undo    []undoEntry
	enc     []byte // scratch buffer for op payload encoding
	// arena is the chunk the bump allocator for undo row images is
	// filling; chunks is the chain it draws from, chunks[:chunksUsed]
	// the part this transaction has entered.
	arena      []byte
	chunks     [][]byte
	chunksUsed int

	// absent is the one key this transaction's last statement found
	// missing from the index while holding X on the row (see update); the
	// zero value is no key. A partition-owned transaction holds no row
	// lock, so it never has one and never writes the field.
	absent absentKey
	// miss is the missing-key error an Update fills (updateMiss).
	miss *notFoundError
}

// absentKey names a row the transaction knows to be absent.
type absentKey struct {
	tbl *Table
	key uint64
}

// dropNote forgets the absent key; every write statement begins with it.
func (t *Txn) dropNote() {
	if t.mode.Owned == 0 {
		t.absent = absentKey{}
	}
}

// The undo arena is a chain of chunks the handle owns. Within a
// transaction it grows geometrically: the first chunk is arenaChunk (one
// chunk amortizes the per-op row-image allocation over ~a hundred
// OLTP-sized rows) and each further one doubles the last up to
// arenaChunkMax, so a bulk transaction makes a handful of allocations
// instead of one per four rows. Across transactions the chain is
// reused in the same order, up to arenaRetain bytes of it: an OLTP
// transaction sees its one recycled 4 KiB chunk as before, and the
// next batch of a bulk load writes its row images into memory the last
// batch already paid for (fresh chunks this large come zeroed and
// page-faulted from the runtime, which cost a tenth of the loader's
// CPU). Keeping a chunk costs nothing per transaction — unlike a
// recycled map there is nothing to clear — so the bound is only on what
// a pooled handle pins.
const (
	arenaChunk    = 4 << 10
	arenaChunkMax = 256 << 10
	arenaRetain   = 1 << 20
)

// arenaAlloc returns n bytes of the transaction's undo arena. The arena
// retires wholesale when the transaction finishes, and a full chunk is
// left in place (never moved), so previously returned slices stay valid
// as it grows.
func (t *Txn) arenaAlloc(n int) []byte {
	if cap(t.arena)-len(t.arena) < n {
		if t.chunksUsed < len(t.chunks) && cap(t.chunks[t.chunksUsed]) >= n {
			t.arena = t.chunks[t.chunksUsed]
		} else {
			size := max(arenaChunk, min(2*cap(t.arena), arenaChunkMax), n)
			t.arena = make([]byte, 0, size)
			// A retained chunk too small for this record, and whatever
			// followed it, gives way to the new one.
			t.chunks = append(t.chunks[:t.chunksUsed], t.arena)
		}
		t.chunksUsed++
	}
	off := len(t.arena)
	t.arena = t.arena[:off+n]
	return t.arena[off : off+n : off+n]
}

// arenaReset retires the arena at the end of a transaction: the undo
// entries were the only holders of its bytes. The chain stays for the
// next transaction, cut to arenaRetain bytes.
func (t *Txn) arenaReset() {
	t.arena, t.chunksUsed = nil, 0
	keep, total := 0, 0
	for keep < len(t.chunks) && total+cap(t.chunks[keep]) <= arenaRetain {
		total += cap(t.chunks[keep])
		keep++
	}
	clear(t.chunks[keep:])
	t.chunks = t.chunks[:keep]
}

// arenaCopy copies b into the transaction's undo arena.
func (t *Txn) arenaCopy(b []byte) []byte {
	if b == nil {
		return nil
	}
	c := t.arenaAlloc(len(b))
	copy(c, b)
	return c
}

// arenaRowRecord builds a heap row record (key(8) | value) in the undo
// arena. The bytes stay valid for the transaction's lifetime — exactly
// the lifetime of the undo entry that retains them as an after-image —
// so write paths avoid a per-op allocation.
func (t *Txn) arenaRowRecord(key uint64, value []byte) []byte {
	rec := t.arenaAlloc(8 + len(value))
	binary.LittleEndian.PutUint64(rec, key)
	copy(rec[8:], value)
	return rec
}

// Begin starts a transaction. With no Intent it is an ordinary locked
// (2PL) read-write transaction; see Intent for what the one optional
// argument selects. Begin and Exec are the only ways in.
func (e *Engine) Begin(opts ...Intent) *Txn {
	if len(opts) > 1 {
		panic("core: Begin takes at most one Intent")
	}
	id := e.txnSeq.Add(1)
	var t *Txn
	if v := e.txnPool.Get(); v != nil {
		t = v.(*Txn)
		t.locks.Reset(id)
	} else {
		t = &Txn{e: e, locks: e.locks.NewHolder(id)}
		// The holder keeps a pointer to the clock for the life of the
		// handle: lock waits made on this holder's behalf feed it.
		t.locks.SetClock(&t.clock)
	}
	invariant.PoolGot("core.Begin", t)
	t.id = id
	t.state = txnActive
	t.mode = txnMode{}
	if len(opts) == 1 {
		t.mode.Intent = opts[0]
		t.mode.snapshot = e.cfg.MVCC && t.mode.Owned == 0 && (t.mode.ReadOnly || t.mode.Optimistic)
	}
	t.lastLSN = wal.NilLSN
	t.snap = 0
	t.verTxn = nil
	// No clock Reset here: finish's fold drains every lap to zero, so a
	// pooled handle's clock is already clean; Start just restamps.
	t.path = t.mode.Owned // the zero TxnPath is PathConv
	t.clock.Start(obs.Now())
	obs.TraceEvent(obs.EvBegin, id, 0, 0)
	if t.mode.snapshot {
		e.join(t) // pins t.snap
		if t.mode.ReadOnly {
			t.path = obs.PathROSnap
			e.mvcc.snapBegins.Inc()
		} else {
			t.path = obs.PathSIWrite
			e.mvcc.siBegins.Inc()
			if t.writeSet == nil {
				t.writeSet = make(map[verKey]siWrite)
			}
		}
	}
	return t
}

// finish is the last step of every transaction: trace the outcome,
// fold the phase clock, leave the live registry (dropping the snapshot
// pin), recycle the handle, and count the commit or abort. lsn is the
// commit record's position (NilLSN when nothing was logged).
func (t *Txn) finish(state txnState, lsn wal.LSN) {
	t.state = state
	e := t.e
	oc, ev, counter := obs.OutcomeCommit, obs.EvCommit, &e.commits
	if state == txnAborted {
		oc, ev, counter = obs.OutcomeAbort, obs.EvAbort, &e.aborts
	}
	obs.TraceEvent(ev, t.id, uint64(lsn), 0)
	// Fold the critical-path breakdown before the handle is recycled;
	// the same numbers feed the slow-transaction reservoir so a
	// tail-worthy transaction is captured without re-reading the clock.
	end := obs.Now()
	total := end - t.clock.StartTime()
	var phases [obs.NumPhases]int64
	obs.TxnPhases.Fold(t.path, oc, &t.clock, total, &phases)
	obs.SlowTxns.Offer(t.id, t.path, oc, end, total, &phases)
	if state == txnAborted && t.verTxn != nil && e.cfg.SyncCommit {
		// Under SyncCommit the floor follows the durable frontier, so
		// the end record must be durable before leave can move the
		// floor past it. The locks are already released; a log that
		// fails the wait leaves the nodes to a later prune.
		_ = e.log.WaitFlushedC(t.lastLSN, &t.clock)
	}
	if t.joined() {
		e.leave(t)
	}
	if state == txnAborted && t.verTxn != nil {
		// The end record stamped the aborted nodes and leave moved the
		// floor past it (see retireAborted): they are ordinary dead
		// versions now. Prune the chains they sit on so an abort with no
		// snapshot pinned leaves no garbage behind.
		e.mvcc.retireAborted(t.verNodes, &t.clock)
	}
	// Drop row-image references so the pool doesn't pin them, but
	// keep the slice's capacity for the next transaction.
	for i := range t.undo {
		t.undo[i] = undoEntry{}
	}
	t.undo = t.undo[:0]
	// Version nodes now live (or died) in the chains; drop the handle's
	// references so the pool doesn't pin them.
	for i := range t.verNodes {
		t.verNodes[i] = nil
	}
	t.verNodes = t.verNodes[:0]
	// Drop buffered SI writes (the map survives for the next SI txn on
	// this handle; values are heap-allocated copies the map entry was
	// the only holder of).
	if len(t.writeSet) > 0 {
		clear(t.writeSet)
	}
	t.siKeys = t.siKeys[:0]
	// Chains grow with version-installing writers: one in expireEvery
	// raises, passing pins past MaxSnapshotAge so their versions sweep.
	if t.verTxn != nil && e.cfg.MaxSnapshotAge > 0 && e.mvcc.expireTick.Add(1)%expireEvery == 0 {
		e.raise()
	}
	t.arenaReset()
	t.absent = absentKey{}
	if state == txnAborted {
		t.miss = nil // the abort's error may be it
	}
	invariant.PoolPut("core.finish", t)
	e.txnPool.Put(t)
	counter.Inc()
}

// retire is the one exit for a transaction whose remaining work is in
// memory only — every transaction that logged nothing (read-only,
// snapshot, SI conflict loser) and the end of a logged Abort. It works
// even while the engine is closing: the locks and the snapshot pin
// MUST be released on every path, or the lock table and the GC
// watermark stay held for the life of the process.
func (t *Txn) retire(state txnState) {
	t.locks.ReleaseAll()
	t.finish(state, wal.NilLSN)
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Clock returns the transaction's phase clock. DORA uses it to
// attribute queue and service time to the transaction it runs; the
// pointer is valid until Commit/Abort returns (the handle may then be
// recycled).
func (t *Txn) Clock() *obs.PhaseClock { return &t.clock }

func (t *Txn) acquire(name lock.Name, mode lock.Mode) error {
	if t.mode.Owned != 0 {
		return nil
	}
	return t.locks.Acquire(name, mode)
}

// logged reports whether the transaction wrote a record: there is no
// begin record, so one counts as logged from its first data record.
func (t *Txn) logged() bool { return t.lastLSN != wal.NilLSN }

func (t *Txn) checkActive() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	if t.e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// logOp appends a data record for op, records the undo entry, and
// returns its LSN.
func (t *Txn) logOp(op *OpRecord) (wal.LSN, error) {
	prev := t.lastLSN
	// The payload is copied into the log ring before AppendFields
	// returns, so the scratch buffer is safely reused per op.
	t.enc = encodeOpTo(t.enc, op)
	lsn, err := t.e.log.AppendFieldsC(wal.RecUpdate, t.id, prev, uint64(op.RID.Page), 0, t.enc, nil, &t.clock)
	if err != nil {
		return 0, err
	}
	t.lastLSN = lsn
	// Callers may pass Before aliasing a page slice that is only valid
	// while they hold the frame latch (logOp runs inside that window);
	// rewrite it to an arena copy the undo entry — and the caller, via
	// the mutated op — can keep for the transaction's lifetime.
	op.Before = t.arenaCopy(op.Before)
	t.undo = append(t.undo, undoEntry{op: *op, prev: prev})
	// logOp runs inside the heap page's X-latch window (the *FnC
	// callbacks), so a snapshot reader that saw this op's effect is
	// guaranteed to find the version node installed here.
	if t.e.cfg.MVCC && op.Op != OpExtend {
		t.installVersion(op.Table, op.Key, op.Before)
	}
	return lsn, nil
}

// checkWrite is checkActive for the operations a read-only intent
// refuses, whichever mechanism serves it.
func (t *Txn) checkWrite() error {
	if err := t.checkActive(); err != nil {
		return err
	}
	if t.mode.ReadOnly {
		return ErrReadOnlyTxn
	}
	return nil
}

// Read returns the value stored under key in table. On a snapshot
// transaction it resolves against the pinned snapshot without touching
// the lock manager.
func (t *Txn) Read(tbl *Table, key uint64) ([]byte, error) {
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	if t.mode.snapshot {
		return t.siRead(tbl, key)
	}
	return t.lockedRead(tbl, key, lock.IS, lock.S)
}

// ReadForUpdate returns the value under key while taking the row lock
// exclusively up front. Read-modify-write transactions use it to
// avoid S-to-X conversion deadlocks on hot rows.
func (t *Txn) ReadForUpdate(tbl *Table, key uint64) ([]byte, error) {
	if err := t.checkWrite(); err != nil {
		return nil, err
	}
	if t.mode.snapshot {
		// SI never locks up front: the read serves the snapshot (plus
		// the txn's own buffered writes), and the usual follow-up write
		// puts the key in the write set, where first-committer-wins
		// validation supplies the lost-update protection ReadForUpdate
		// exists for on the locked path.
		return t.siRead(tbl, key)
	}
	return t.lockedRead(tbl, key, lock.IX, lock.X)
}

func (t *Txn) lockedRead(tbl *Table, key uint64, tableMode, rowMode lock.Mode) ([]byte, error) {
	if err := t.acquire(lock.TableName(tbl.ID), tableMode); err != nil {
		return nil, err
	}
	if err := t.acquire(lock.RowName(tbl.ID, key), rowMode); err != nil {
		return nil, err
	}
	packed, err := tbl.Index.GetC(key, &t.clock)
	if err != nil {
		return nil, indexReadErr(err, tbl, key)
	}
	rec, err := tbl.Heap.ReadC(heap.Unpack(packed), &t.clock)
	if err != nil {
		return nil, err
	}
	return rowValue(rec), nil
}

// Insert adds a new row; it fails with ErrExists for duplicate keys.
// The engine copies value before Insert returns and keeps no reference
// to it, in every mode (the locked path into the undo arena, snapshot
// isolation into its write set): the caller may reuse the slice at
// once, as the server does with its read buffer.
func (t *Txn) Insert(tbl *Table, key uint64, value []byte) error {
	if err := t.checkWrite(); err != nil {
		return err
	}
	if t.mode.snapshot {
		return t.siInsert(tbl, key, value)
	}
	return t.insert(tbl, key, value)
}

// Update replaces the value of an existing row; a missing key fails
// with ErrNotFound. value is copied as by Insert. The missing-key error
// is the handle's own: it holds until the transaction's next Update
// miss or its Commit, after which a recycled handle fills it again. An
// Abort, and so the error Exec returns, leaves it to the caller.
func (t *Txn) Update(tbl *Table, key uint64, value []byte) error {
	if err := t.checkWrite(); err != nil {
		return err
	}
	if t.mode.snapshot {
		return t.siUpdate(tbl, key, value)
	}
	return t.update(tbl, key, value)
}

// Delete removes a row.
func (t *Txn) Delete(tbl *Table, key uint64) error {
	if err := t.checkWrite(); err != nil {
		return err
	}
	if t.mode.snapshot {
		return t.siDelete(tbl, key)
	}
	return t.delete(tbl, key)
}

// lockWrite opens every logged write with the IX table and X row
// locks. insert, update and delete below are the logged bodies; a
// snapshot-mode Commit runs its buffered write set through them once
// validation has passed (si.go). The first write joins the live
// registry unless its snapshot pin already did, then stores the log's
// filled frontier as the slot's first LSN: a checkpoint that finds it
// there reads that frontier, which no later record lies below, and one
// that does not find it appended its own begin marker before any record
// of this transaction.
func (t *Txn) lockWrite(tbl *Table, key uint64) error {
	if !t.joined() {
		t.e.join(t)
	}
	if sl := t.slot; wal.LSN(sl.first.Load()) == wal.NilLSN {
		sl.first.Store(uint64(t.e.log.FilledLSN()))
	}
	if err := t.acquire(lock.TableName(tbl.ID), lock.IX); err != nil {
		return err
	}
	return t.acquire(lock.RowName(tbl.ID, key), lock.X)
}

func (t *Txn) insert(tbl *Table, key uint64, value []byte) error {
	known := t.absent == absentKey{tbl, key}
	t.dropNote()
	if err := t.lockWrite(tbl, key); err != nil {
		return err
	}
	if known {
		// The statement before this one probed for exactly this key, under
		// the X lock still held, and found nothing: the upsert's miss.
		t.e.absentMemoHits.Inc()
	} else if _, err := tbl.Index.GetC(key, &t.clock); err == nil {
		return fmt.Errorf("%w: table %s key %d", ErrExists, tbl.Name, key)
	} else if !errors.Is(err, btree.ErrNotFound) {
		// An infrastructure failure (IO error, poisoned WAL) must not
		// masquerade as "key absent" and let the insert proceed.
		return indexReadErr(err, tbl, key)
	}
	rec := t.arenaRowRecord(key, value)
	op := OpRecord{Op: OpInsert, Table: tbl.ID, Key: key, After: rec}
	rid, err := tbl.Heap.InsertFnC(rec, &t.clock, func(rid heap.RID) (uint64, error) {
		op.RID = rid
		lsn, err := t.logOp(&op)
		return uint64(lsn), err
	})
	if err != nil {
		return err
	}
	return tbl.Index.InsertC(key, rid.Pack(), &t.clock)
}

func (t *Txn) update(tbl *Table, key uint64, value []byte) error {
	t.dropNote()
	if err := t.lockWrite(tbl, key); err != nil {
		return err
	}
	packed, err := tbl.Index.GetC(key, &t.clock)
	if err != nil {
		// A miss is remembered for the insert an upsert follows it with.
		// What makes that sound is the row's X lock, held from before the
		// probe until the transaction ends: nobody else can create the key
		// in between, and this transaction's own next write statement,
		// whichever it is, drops the note. A transaction whose lock set
		// does not hold the row (Intent.Owned, snapshot mode) takes none.
		if !errors.Is(err, btree.ErrNotFound) {
			return indexReadErr(err, tbl, key)
		}
		if t.mode.Owned == 0 && !t.mode.snapshot {
			t.absent = absentKey{tbl, key}
		}
		return t.updateMiss(tbl, key)
	}
	rid := heap.Unpack(packed)
	rec := t.arenaRowRecord(key, value)
	op := OpRecord{Op: OpUpdate, Table: tbl.ID, Key: key, RID: rid, After: rec}
	err = tbl.Heap.UpdateFnC(rid, rec, &t.clock, func(before []byte) (uint64, error) {
		op.Before = before // page slice; logOp arena-copies it synchronously
		lsn, lerr := t.logOp(&op)
		return uint64(lsn), lerr
	})
	if !errors.Is(err, page.ErrPageFull) {
		return err
	}
	// The grown row no longer fits on its page: delete + re-insert,
	// which moves the row and updates the index.
	before, rerr := tbl.Heap.ReadC(rid, &t.clock)
	if rerr != nil {
		return rerr
	}
	delOp := OpRecord{Op: OpDelete, Table: tbl.ID, Key: key, RID: rid, Before: before}
	if err := tbl.Heap.DeleteFnC(rid, &t.clock, func([]byte) (uint64, error) {
		lsn, lerr := t.logOp(&delOp)
		return uint64(lsn), lerr
	}); err != nil {
		return err
	}
	insOp := OpRecord{Op: OpInsert, Table: tbl.ID, Key: key, After: rec}
	newRID, err := tbl.Heap.InsertFnC(rec, &t.clock, func(r heap.RID) (uint64, error) {
		insOp.RID = r
		lsn, lerr := t.logOp(&insOp)
		return uint64(lsn), lerr
	})
	if err != nil {
		return err
	}
	return tbl.Index.InsertC(key, newRID.Pack(), &t.clock)
}

func (t *Txn) delete(tbl *Table, key uint64) error {
	t.dropNote()
	if err := t.lockWrite(tbl, key); err != nil {
		return err
	}
	packed, err := tbl.Index.GetC(key, &t.clock)
	if err != nil {
		return indexReadErr(err, tbl, key)
	}
	rid := heap.Unpack(packed)
	op := OpRecord{Op: OpDelete, Table: tbl.ID, Key: key, RID: rid}
	if err := tbl.Heap.DeleteFnC(rid, &t.clock, func(before []byte) (uint64, error) {
		op.Before = before // page slice; logOp arena-copies it synchronously
		lsn, lerr := t.logOp(&op)
		return uint64(lsn), lerr
	}); err != nil {
		return err
	}
	return tbl.Index.DeleteC(key, &t.clock)
}

// Scan iterates rows with lo <= key <= hi in key order under a
// table-level shared lock. fn runs under the index's latches and must
// not call the engine: collect what it needs and act after Scan
// returns.
func (t *Txn) Scan(tbl *Table, lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	if t.mode.snapshot {
		return t.siScan(tbl, lo, hi, fn)
	}
	if err := t.acquire(lock.TableName(tbl.ID), lock.S); err != nil {
		return err
	}
	var readErr error
	if err := tbl.Index.ScanC(lo, hi, &t.clock, func(key, packed uint64) bool {
		rec, err := tbl.Heap.ReadC(heap.Unpack(packed), &t.clock)
		if err != nil {
			if errors.Is(err, heap.ErrNotFound) {
				return true // row vanished mid-scan (should not happen under S)
			}
			readErr = err
			return false
		}
		return fn(key, rowValue(rec))
	}); err != nil {
		return err
	}
	return readErr
}

// Commit makes the transaction durable and releases its locks. Under
// ELR, locks are released as soon as the commit record is in the log
// buffer; the call still blocks for durability before returning.
//
// The contract is the same in every mode: a Commit (or CommitAsync, or
// CommitWait) that returns an error leaves the transaction active, and
// the caller must Abort it.
func (t *Txn) Commit() error {
	lsn, err := t.CommitAsync()
	if err != nil || lsn == wal.NilLSN {
		return err
	}
	return t.CommitWait(lsn)
}

// CommitAsync is the first half of Commit, everything that does not
// block on the log device: a snapshot-mode writer validates and applies
// its write set, then the commit record is appended (stamping the
// versions the transaction installed, if any) and, under ELR, the locks
// are released. DORA's fast path runs it on the owning executor so
// the executor never stalls on a group-commit flush, and its
// cross-partition path runs it before releasing the executors it
// claimed; the coordinator completes the commit with CommitWait, which
// is the only part that blocks.
//
// The returned LSN is the commit record's position. A transaction that
// logged nothing commits fully here and returns NilLSN; the handle is
// retired and CommitWait must NOT be called.
func (t *Txn) CommitAsync() (wal.LSN, error) {
	if t.state != txnActive {
		return wal.NilLSN, ErrTxnDone
	}
	if len(t.writeSet) > 0 {
		if err := t.applyWriteSet(); err != nil {
			return wal.NilLSN, err
		}
	}
	if !t.logged() {
		if err := t.e.WaitReadsDurable(t.locks.Dep(), &t.clock); err != nil {
			return wal.NilLSN, err
		}
		t.retire(txnCommitted)
		return wal.NilLSN, nil
	}
	e := t.e
	if e.closed.Load() {
		return wal.NilLSN, ErrClosed
	}
	commitLSN, err := t.appendOutcome(wal.RecCommit)
	if err != nil {
		return wal.NilLSN, err
	}
	if t.mode.snapshot {
		e.mvcc.siCommits.Inc()
	}
	if e.cfg.ELR {
		t.locks.ReleaseCommitted(uint64(commitLSN) + 1) // see WaitReadsDurable
	}
	return commitLSN, nil
}

// CommitWait is the durable tail of every logged commit: wait for the
// commit record's durability (under SyncCommit), release the locks if
// ELR did not already, and retire the handle. No end record follows a
// commit: restart closes a transaction at its commit record. The only
// error is the flush wait's. commitLSN must be the non-nil value
// CommitAsync returned.
func (t *Txn) CommitWait(commitLSN wal.LSN) error {
	e := t.e
	if e.cfg.SyncCommit {
		if err := e.log.WaitFlushedC(commitLSN, &t.clock); err != nil {
			return err
		}
	}
	if !e.cfg.ELR {
		t.locks.ReleaseAll()
	}
	t.finish(txnCommitted, commitLSN)
	return nil
}

// Abort rolls the transaction back, writing compensation records so
// a crash mid-abort resumes correctly, and releases its locks. A
// transaction that logged nothing (read-only, snapshot, an SI writer
// whose buffered write set never reached the heap) just retires.
func (t *Txn) Abort() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	e := t.e
	if t.logged() {
		if e.closed.Load() {
			return ErrClosed
		}
		lsn, err := e.log.AppendFieldsC(wal.RecAbort, t.id, t.lastLSN, 0, 0, nil, nil, &t.clock)
		if err != nil {
			// The log refuses even the abort record: it is poisoned, so
			// nothing this process writes can become durable any more and
			// restart recovery rolls this loser back from the durable
			// prefix. Holding the handle would only leak its locks and its
			// live-registry entry (a snapshot pin, a first LSN that holds
			// back a checkpoint's analysis start); retire it
			// un-rolled-back and say so.
			t.retire(txnAborted)
			return fmt.Errorf("core: abort left to restart recovery: %w", err)
		}
		t.lastLSN = lsn
		var uc undoCtx
		for i := len(t.undo) - 1; i >= 0; i-- {
			entry := &t.undo[i]
			inv := entry.op.inverse()
			// UndoNext names the next record restart undo would
			// process: the one logged before the record being undone.
			clr, err := e.undoOp(t.id, &inv, t.lastLSN, entry.prev, true, &uc)
			if err != nil {
				return fmt.Errorf("core: abort undo: %w", err)
			}
			t.lastLSN = clr
		}
		// The undo ops above restored the rows, so the end record
		// stamps the transaction's version nodes (instead of unlinking
		// them — a reader holding a stale row copy must still find a
		// blocking node in the chain). Readers below the stamp keep
		// resolving onto the before-images, which equal the restored
		// rows; finish prunes the chains.
		if _, err := t.appendOutcome(wal.RecEnd); err != nil {
			return err
		}
	}
	t.retire(txnAborted)
	return nil
}

// appendOutcome appends t's commit record, or the end record of its
// rollback, and makes it the chain's tail. A transaction that installed
// versions has the log stamp them with the record's LSN before the
// record joins the filled prefix the snapshot floor follows.
func (t *Txn) appendOutcome(kind wal.RecType) (wal.LSN, error) {
	var stamp *atomic.Uint64
	if t.verTxn != nil {
		stamp = &t.verTxn.commitLSN
	}
	lsn, err := t.e.log.AppendFieldsC(kind, t.id, t.lastLSN, 0, 0, nil, stamp, &t.clock)
	if err == nil {
		t.lastLSN = lsn
	}
	return lsn, err
}

// WaitReadsDurable makes a transaction that logged nothing wait until
// what it read is durable, or a crash could take back a value it
// answered with. dep is the highest durability target (commit LSN + 1)
// of the commits it may have read (0: none): for a locked transaction
// what its grants noted under early lock release (Holder.Dep), for
// DORA's owned ones their executors' marks. A snapshot needs no wait:
// under SyncCommit it is pinned at the durable frontier
// (Engine.advanceFloor). The wait's time goes to c (nil: nowhere).
func (e *Engine) WaitReadsDurable(dep uint64, c *obs.PhaseClock) error {
	if !e.cfg.SyncCommit || dep <= uint64(e.log.FlushedLSN()) {
		return nil // without SyncCommit a commit promises no durability either
	}
	e.durableReadWaits.Inc()
	return e.log.WaitFlushedC(wal.LSN(dep-1), c)
}

// applyOp redoes a logged row operation (forward or compensation) on
// tbl's heap, stamping lsn as the pageLSN. It leaves the index alone:
// recovery rebuilds every index after redo, and redo applies extends
// itself.
func applyOp(tbl *Table, op *OpRecord, lsn uint64) error {
	switch op.Op {
	case OpInsert:
		return tbl.Heap.InsertAt(op.RID, op.After, lsn)
	case OpUpdate:
		return tbl.Heap.UpdateWithLSN(op.RID, op.After, lsn)
	case OpDelete:
		return tbl.Heap.DeleteWithLSN(op.RID, lsn)
	default:
		return fmt.Errorf("core: unknown op %v", op.Op)
	}
}

// Exec runs fn inside a transaction begun with opts (see Begin),
// committing on nil and aborting on error. It is the one retry loop:
// lock victims (deadlock, timeout) in any mode and write-conflict or
// expired-snapshot losers under SI are re-run on a fresh transaction
// with the shared capped exponential backoff (see retry.go) so re-runs
// of the same contenders don't re-collide in lockstep. fn must leave
// committing and aborting to Exec.
func (e *Engine) Exec(fn func(*Txn) error, opts ...Intent) error {
	for attempt := 0; ; attempt++ {
		t := e.Begin(opts...)
		err := fn(t)
		if err == nil {
			if err = t.Commit(); err == nil {
				return nil
			}
		}
		// fn failed or Commit refused; either way the transaction is
		// still active, and this Abort is the only call that retires it.
		// The handle is never touched again afterwards.
		if aerr := t.Abort(); aerr != nil {
			return fmt.Errorf("core: abort after %v: %w", err, aerr)
		}
		if retryableTxnErr(err) && attempt < maxTxnRetries {
			retrySleep(attempt)
			continue
		}
		return err
	}
}
