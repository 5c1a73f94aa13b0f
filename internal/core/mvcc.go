// MVCC version table: undo-based in-memory version chains that give
// read-only transactions a lock-free snapshot view.
//
// Writers keep before-images reachable from the row: every logged
// forward operation installs a version node holding the record's
// before-image (nil for inserts) at the head of the row's chain, under
// the same page X latch window that logs the operation. The commit
// record stamps the transaction's nodes — one atomic store on the
// shared verTxn, visible through every node — with its LSN. An ABORT
// stamps them the same way with its end record, appended after undo has
// restored the heap rows. Either way a stamped
// node means "the heap row stopped reflecting this transaction's write
// at LSN c" — for a commit because the write became permanent there,
// for an abort because undo had restored the before-image by the time
// c was appended. A snapshot transaction pins the floor at begin and
// resolves each read by walking the chain for the oldest node whose
// stamp is pending or newer than its snapshot: that node's
// before-image is the row as of the snapshot (nil = the key did not
// exist). No blocking node means the current row is the snapshot row.
// Zero lock-manager traffic either way.
//
// Stamping aborts (rather than unlinking their nodes) is what makes
// the read path race-free: a reader that caught the heap row mid-write
// finds the writer's node still in the chain — pending, or stamped
// with an LSN that is necessarily newer than the reader's snapshot —
// and serves the before-image. An unlink would leave a window where
// the reader's stale row copy survives the chain check.
//
// The floor: the log stores an outcome record's stamp before the
// record joins its filled prefix (wal.Log.AppendFieldsC), so every
// record below FilledLSN has stamped its nodes and every record still
// to come starts at or above it. The snapshot floor is FilledLSN − 1
// (advanceFloor): a record that starts exactly at the frontier may be
// stamped but not yet filled, and the −1 keeps it out. No lock orders
// the stamps; the log's own frontier does. No lock orders the pins
// against the floor either: a pin re-checks itself against the floor
// and the oldest-pin mirror after it registers (Engine.pin), and
// watermark() loads the floor BEFORE that mirror. A pinned snapshot is
// a live-registry slot's pin (live.go).
//
// Chains are volatile: a crash discards them with the process, and
// recovery restarts the floor at the log's end. The per-page
// version epoch (page.VerEpoch) shares this lifetime — stale non-zero
// epochs after a restart cost a chain lookup that misses, never a
// wrong read.
//
// GC: a node whose stamp is at or below the watermark — the oldest
// active snapshot, or the floor when none is active — serves no
// current or future snapshot and is pruned. Writers prune their own
// chain's tail on install; an aborted transaction prunes the chains it
// touched as it finishes; releasing the oldest snapshot sweeps the
// shards that hold a chain. Pending nodes are never pruned.
package core

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"hydra/internal/invariant"
	"hydra/internal/obs"
)

// verKey addresses one row's version chain.
type verKey struct {
	table uint32
	key   uint64
}

// verTxn is the per-transaction stamp shared by all of the
// transaction's version nodes: the log's one atomic store of the commit
// or end record's LSN flips every node from pending (0) to stamped.
type verTxn struct {
	commitLSN atomic.Uint64
}

// verNode is one version: the row's before-image as of the owning
// transaction's write. Nodes are immutable after install except for
// the chain link, which only mutates under the shard mutex.
type verNode struct {
	key    verKey
	txn    *verTxn
	before []byte   // heap record (key|value) before the write; nil = key absent
	next   *verNode // older version
}

// verShardCount shards the chain map; chains are touched once per
// versioned write and once per chain-hitting snapshot read, so modest
// striping suffices.
const verShardCount = 64

// verShard is one stripe of the chain map.
type verShard struct {
	// mu is a leaf bookkeeping mutex (spin tier): critical sections are
	// a map probe plus pointer splices, never IO and never parking.
	mu     invariant.Mutex[invariant.MVCCShard]
	chains map[verKey]*verNode
	// perTable counts live chains (keys, not nodes) per table, so a
	// range scan's collectRange can skip stripes that hold nothing for
	// the scanned table instead of walking every resident chain.
	perTable map[uint32]int
	// numChains is len(chains), changed under mu with perTable, so
	// sweep and collectRange pass over an empty stripe without locking
	// it.
	numChains atomic.Int32
}

// dropChain removes k's (empty) chain entry and its table count.
// Callers hold sh.mu.
func (sh *verShard) dropChain(k verKey) {
	delete(sh.chains, k)
	sh.numChains.Add(-1)
	if n := sh.perTable[k.table] - 1; n > 0 {
		sh.perTable[k.table] = n
	} else {
		delete(sh.perTable, k.table)
	}
}

// noSnapshot is the oldestSnap sentinel when no snapshot is active.
const noSnapshot = ^uint64(0)

// verTable is the engine's version store.
type verTable struct {
	shards [verShardCount]verShard

	// snapFloor is the snapshot a new snapshot transaction pins: the
	// log's filled frontier less one, as of the last advanceFloor. It
	// only grows.
	snapFloor atomic.Uint64

	// oldestSnap mirrors the lowest live pin of the live registry
	// so the install-path watermark read walks nothing: noSnapshot when
	// nothing is pinned. A pinner lowers it, a raise recomputes it, and
	// raising counts the raises in flight (see Engine.pin).
	oldestSnap atomic.Uint64
	raising    atomic.Int32

	snapBegins obs.Counter // snapshots pinned
	snapReads  obs.Counter // point reads + scans on the snapshot path
	chainReads obs.Counter // reads answered from a version chain
	installs   obs.Counter // version nodes installed
	gcNodes    obs.Counter // nodes reclaimed by prune/sweep
	gcSweeps   obs.Counter // whole-table sweeps
	liveNodes  atomic.Int64

	// Snapshot-isolation writer path (see si.go).
	siBegins    obs.Counter // SI writer transactions begun
	siCommits   obs.Counter // SI writers committed (validation passed)
	siConflicts obs.Counter // SI writers aborted by first-committer-wins
	snapExpired obs.Counter // snapshot transactions that left past Config.MaxSnapshotAge

	expireTick atomic.Uint32 // version-installing finishes, sampled by expireEvery
}

func newVerTable() *verTable {
	vt := &verTable{}
	vt.oldestSnap.Store(noSnapshot)
	for i := range vt.shards {
		vt.shards[i].chains = make(map[verKey]*verNode)
		vt.shards[i].perTable = make(map[uint32]int)
	}
	return vt
}

func (vt *verTable) shard(k verKey) *verShard {
	h := (k.key ^ uint64(k.table)*0x9E3779B97F4A7C15) * 0x9E3779B97F4A7C15
	return &vt.shards[h>>(64-6)] // top bits: verShardCount == 64
}

// advanceFloor moves the snapshot floor up to the log's filled
// frontier less one, and returns that value: every record below
// FilledLSN has stamped its nodes, and a record that starts exactly at
// it may be stamped but not yet filled. Under SyncCommit the frontier
// is the durable one, which never passes the filled one, so a snapshot
// holds only commits a crash keeps and its reads wait for no flush
// (Engine.WaitReadsDurable). A fresh log (frontier 0) gives 0. The
// floor is an atomic max, so a stale frontier never moves it back.
func (e *Engine) advanceFloor() uint64 {
	f := e.log.FilledLSN()
	if e.cfg.SyncCommit {
		f = e.log.FlushedLSN()
	}
	var s uint64
	if f > 0 {
		s = uint64(f) - 1
	}
	fl := &e.mvcc.snapFloor
	for cur := fl.Load(); cur < s && !fl.CompareAndSwap(cur, s); cur = fl.Load() {
	}
	return s
}

// watermark returns the GC horizon: the oldest active snapshot, or the
// floor when none is active. A node stamped at or below it serves no
// current or future snapshot. It loads the floor first, then
// oldestSnap; Engine.pin says why that never passes a pin.
func (vt *verTable) watermark() uint64 {
	f := vt.snapFloor.Load()
	if o := vt.oldestSnap.Load(); o != noSnapshot && o < f {
		return o
	}
	return f
}

// join claims a live-registry slot for t. A snapshot transaction joins
// in Begin and pins its snapshot there; any other transaction joins at
// its first write, before its first log record (lockWrite).
func (e *Engine) join(t *Txn) {
	t.slot = e.live.claim(t.slot, t.id)
	if t.mode.snapshot {
		e.pin(t)
	}
}

// joined reports whether t holds its slot: the slot a pooled handle
// last held is never owned by another transaction's id.
func (t *Txn) joined() bool { return t.slot != nil && t.slot.owner.Load() == t.id }

// cutoff returns the begin stamp below which a snapshot is overdue,
// older than Config.MaxSnapshotAge, now: MinInt64, with no clock read,
// when there is no age. The clock is monotonic: overdue stays overdue.
func (e *Engine) cutoff() int64 {
	if e.cfg.MaxSnapshotAge <= 0 {
		return math.MinInt64
	}
	return obs.Now() - int64(e.cfg.MaxSnapshotAge)
}

// expired reports whether t's snapshot is overdue. Its reads check it
// after they read, never only before (see Engine.pin).
func (t *Txn) expired() bool { return t.clock.StartTime() < t.e.cutoff() }

// testHookPinned, when set, runs between a pinner's store and its
// re-check: tests use it to yield there.
var testHookPinned func()

// pin registers t's snapshot s, the floor it advances, in t's slot. No
// lock freezes the floor while it does, so the pin validates itself.
// The pinner, in order:
//
//  1. stores s in its slot, then lowers oldestSnap to s if it is
//     higher (FilledLSN only grows, so in practice only from none);
//  2. re-checks, in this order: no raise is in flight (raising is 0);
//     oldestSnap <= s; snapFloor <= s. If any check fails it retries
//     with a fresh s.
//
// A raise (Engine.raise: the oldest pin left, or the writers' sampled
// tick) increments raising, reads oldestSnap and the clock, walks the
// slots for the lowest pin not overdue at that clock read (older than
// Config.MaxSnapshotAge) and CASes oldestSnap to it, then decrements
// raising. So once the re-check passes, no watermark() can pass s
// unless a raise found it overdue:
//
//   - one whose floor load came before the floor check reads a floor
//     no higher than s, and returns no more than that floor (the floor
//     only grows);
//   - one whose floor load came after the floor check loads oldestSnap
//     later still. A raise that had finished by the raising check made
//     its CAS before the oldestSnap check, which saw the value it left
//     at or below s. A raise in flight at the raising check fails it. A
//     raise that began after it walks the slots after s was stored, and
//     lowers oldestSnap no higher than s unless s was overdue at its
//     clock read. Nothing else raises it.
//
// Dropping the raising check lets a raise whose walk missed s CAS over
// the lowered value after the oldestSnap check; dropping the floor
// check lets a pin register below a floor whose watermark was already
// taken.
//
// An overdue pin may be passed: every prune beyond it follows the raise
// that passed it, so a read that observed the prune checks, after it
// read (snapshotRead, each chunk of snapshotScan, applyWriteSet after
// validation), a later clock, and fails with ErrSnapshotExpired.
func (e *Engine) pin(t *Txn) {
	vt, sl := e.mvcc, t.slot
	sl.born.Store(t.clock.StartTime())
	t.pinLow = noSnapshot
	for {
		s := e.advanceFloor()
		t.pinLow = min(t.pinLow, s)
		sl.pin.Store(s)
		for o := vt.oldestSnap.Load(); o > s && !vt.oldestSnap.CompareAndSwap(o, s); o = vt.oldestSnap.Load() {
		}
		if testHookPinned != nil {
			testHookPinned()
		}
		if vt.raising.Load() == 0 && vt.oldestSnap.Load() <= s && vt.snapFloor.Load() <= s {
			t.snap = s
			return
		}
		runtime.Gosched()
	}
}

// leave releases t's slot and, on an MVCC engine, advances the floor to
// the log's frontier — past the outcome record t appended once the log
// before it has filled (under SyncCommit, flushed), which a commit's
// flush wait already ensured — so writers keep GC moving. A snapshot
// transaction that leaves overdue counts as expired; it then raises oldestSnap when oldestSnap may be
// one of its own pins (it lies at or above the first one it tried) or a
// raise is in flight whose walk may have read its pin: either way no
// later raise would be left to correct it.
func (e *Engine) leave(t *Txn) {
	vt := e.mvcc
	t.slot.release()
	if e.cfg.MVCC {
		e.advanceFloor()
	}
	if t.mode.snapshot && t.expired() {
		vt.snapExpired.Inc()
	}
	if t.mode.snapshot && (vt.raising.Load() > 0 || vt.oldestSnap.Load() >= t.pinLow) {
		e.raise()
	}
}

// raise recomputes oldestSnap from the slots after a pin left or went
// overdue (see Engine.pin), and sweeps the chains when the watermark
// advanced. A CAS that fails means oldestSnap moved since it was read,
// so the raise reads and walks again: a pinner lowered it, and the walk
// now sees that pin, or another raise set it from a walk that may have
// seen a pin since gone.
func (e *Engine) raise() {
	vt := e.mvcc
	vt.raising.Add(1)
	o, m := vt.oldestSnap.Load(), e.live.oldestPin(e.cutoff())
	for m != o && !vt.oldestSnap.CompareAndSwap(o, m) {
		o, m = vt.oldestSnap.Load(), e.live.oldestPin(e.cutoff())
	}
	if m == noSnapshot {
		// Read before the decrement, like the walk: a pinner whose
		// re-check sees this raise finished took a floor no lower.
		m = vt.snapFloor.Load()
	}
	vt.raising.Add(-1)
	if m > o {
		vt.sweep(m)
	}
}

// install records a version node for (table, key) with the given
// before-image, linked at the head of the row's chain. Called from
// logOp, inside the page X-latch critical section of the write it
// shadows — which is what makes the snapshot read's post-read chain
// check sufficient: any write a reader observed has its node installed
// before the reader's page latch was granted. The before-image is
// copied into node-owned memory (the caller's arena recycles at txn
// finish; chain nodes outlive it).
func (t *Txn) installVersion(table uint32, key uint64, before []byte) {
	vt := t.e.mvcc
	if t.verTxn == nil {
		t.verTxn = &verTxn{}
	}
	n := &verNode{key: verKey{table: table, key: key}, txn: t.verTxn}
	if before != nil {
		n.before = append([]byte(nil), before...)
	}
	w := vt.watermark()
	sh := vt.shard(n.key)
	sh.mu.LockC(&t.clock)
	head, existed := sh.chains[n.key]
	n.next = head
	// Prune the tail the new head obsoletes; n itself is pending and
	// never prunable.
	_, freed := pruneChain(n, w)
	sh.chains[n.key] = n
	if !existed {
		sh.perTable[table]++
		sh.numChains.Add(1)
	}
	sh.mu.Unlock()
	t.verNodes = append(t.verNodes, n)
	vt.installs.Inc()
	if freed > 0 {
		vt.gcNodes.Add(uint64(freed))
	}
	vt.liveNodes.Add(int64(1 - freed))
}

// testHookPrune, when set, runs with the horizon of every prune, under
// the chain's shard mutex, before it cuts: tests use it to check the
// horizon against the pins.
var testHookPrune func(w uint64)

// pruneChain cuts the chain suffix invisible under watermark w: the
// first node (newest-first order) stamped at or below w starts the
// dead tail — every node older than it is stamped no later, and the
// before-images of dead nodes serve only snapshots older than w.
// Returns the surviving head (nil when the whole chain dies) and the
// number of nodes freed.
func pruneChain(head *verNode, w uint64) (*verNode, int) {
	if testHookPrune != nil {
		testHookPrune(w)
	}
	var prev *verNode
	for n := head; n != nil; n = n.next {
		c := n.txn.commitLSN.Load()
		if c != 0 && c <= w {
			freed := 0
			for m := n; m != nil; m = m.next {
				freed++
			}
			if prev == nil {
				return nil, freed
			}
			prev.next = nil
			return head, freed
		}
		prev = n
	}
	return head, 0
}

// resolve walks (table, key)'s chain for snapshot snap. blocked
// reports whether a version newer than the snapshot (or pending)
// covers the row; val is then the visible record — a copy — or nil
// when the key did not exist at the snapshot. blocked == false means
// the current heap row (or index miss) is authoritative.
func (vt *verTable) resolve(table uint32, key uint64, snap uint64, c *obs.PhaseClock) (val []byte, blocked bool) {
	k := verKey{table: table, key: key}
	sh := vt.shard(k)
	sh.mu.LockC(c)
	var oldest *verNode
	for n := sh.chains[k]; n != nil; n = n.next {
		cl := n.txn.commitLSN.Load()
		if cl != 0 && cl <= snap {
			break // stamped at or before the snapshot: visible from here
		}
		oldest = n
	}
	if oldest != nil {
		blocked = true
		if oldest.before != nil {
			val = append([]byte(nil), oldest.before...)
		}
	}
	sh.mu.Unlock()
	return val, blocked
}

// collectRange resolves every chained key of table in [lo, hi] for
// snapshot snap. pre maps key -> visible record (nil = invisible at
// snap) for every key whose chain blocks; extras lists, sorted, the
// blocked keys with a visible record — the scan merges them in key
// order so rows deleted after the snapshot still appear. Stripes with
// no chain at all are passed over without their lock, and stripes with
// none for the table after one lock/probe pair, so a scan over a quiet
// table never walks a resident chain. The lock-free skip cannot miss a
// key the walk missed: the delete that removed it from the index
// installed its node, counting the chain, under the page X latch before
// the removal, so the count is non-zero by the time the walk ends.
func (vt *verTable) collectRange(table uint32, lo, hi, snap uint64, c *obs.PhaseClock) (pre map[uint64][]byte, extras []uint64) {
	for i := range vt.shards {
		sh := &vt.shards[i]
		if sh.numChains.Load() == 0 {
			continue
		}
		sh.mu.LockC(c)
		if sh.perTable[table] == 0 {
			sh.mu.Unlock()
			continue
		}
		for k, head := range sh.chains {
			if k.table != table || k.key < lo || k.key > hi {
				continue
			}
			var oldest *verNode
			for n := head; n != nil; n = n.next {
				cl := n.txn.commitLSN.Load()
				if cl != 0 && cl <= snap {
					break
				}
				oldest = n
			}
			if oldest == nil {
				continue
			}
			if pre == nil {
				pre = make(map[uint64][]byte)
			}
			if oldest.before == nil {
				pre[k.key] = nil
			} else {
				pre[k.key] = append([]byte(nil), oldest.before...)
				extras = append(extras, k.key)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(extras, func(i, j int) bool { return extras[i] < extras[j] })
	return pre, extras
}

// hasConflict reports whether (table, key)'s chain blocks a
// snapshot-isolation writer that read snapshot snap: the chain head —
// the newest version — is pending or stamped after snap. Older nodes
// need no inspection (stamps only decrease down the chain), and a head
// at or below snap means nothing committed on the row since the
// snapshot. Callers hold the row's X lock, which (because commit,
// CommitAsync and abort all stamp before releasing locks) also
// guarantees no lock-manager transaction's node is still
// pending; a pending head can then only belong to a lock-bypassing
// writer (DORA partition ownership), and counting it as a conflict is
// the conservative, safe answer.
func (vt *verTable) hasConflict(table uint32, key uint64, snap uint64, c *obs.PhaseClock) bool {
	k := verKey{table: table, key: key}
	sh := vt.shard(k)
	sh.mu.LockC(c)
	conflict := false
	if head := sh.chains[k]; head != nil {
		cl := head.txn.commitLSN.Load()
		conflict = cl == 0 || cl > snap
	}
	sh.mu.Unlock()
	return conflict
}

// expireEvery samples the raise that passes pins past MaxSnapshotAge:
// one per this many version-installing transactions.
const expireEvery = 64

// retireAborted prunes the chains an aborted transaction touched.
// Called from finish after leave: the end record stamped the nodes and
// leave moved the floor to the log's frontier, past the end record
// unless an earlier record is still being copied in (under SyncCommit
// finish waited for the end record's flush first). So with no
// snapshot pinned the aborted nodes — and any dead tail below them — go
// at once; with an older snapshot pinned they stay, blocking its
// readers onto the restored before-images, until sweep or a later
// install prunes them.
func (vt *verTable) retireAborted(nodes []*verNode, c *obs.PhaseClock) {
	w := vt.watermark()
	freed := 0
	for _, n := range nodes {
		sh := vt.shard(n.key)
		sh.mu.LockC(c)
		if head, ok := sh.chains[n.key]; ok {
			nh, f := pruneChain(head, w)
			freed += f
			if nh == nil {
				sh.dropChain(n.key)
			}
		}
		sh.mu.Unlock()
	}
	if freed > 0 {
		vt.gcNodes.Add(uint64(freed))
		vt.liveNodes.Add(int64(-freed))
	}
}

// sweep prunes every chain under watermark w. A stripe that held no
// chain when its count was loaded is passed over without its lock: a
// chain created since holds only nodes installed after w was read,
// which are pending or stamped above it.
func (vt *verTable) sweep(w uint64) {
	freed := 0
	for i := range vt.shards {
		sh := &vt.shards[i]
		if sh.numChains.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		for k, head := range sh.chains {
			nh, f := pruneChain(head, w)
			freed += f
			if nh == nil {
				sh.dropChain(k)
			}
		}
		sh.mu.Unlock()
	}
	if freed > 0 {
		vt.gcNodes.Add(uint64(freed))
		vt.liveNodes.Add(int64(-freed))
	}
	vt.gcSweeps.Inc()
}

// MvccStats aggregates the version store's counters; the tags define
// each metric for every surface (DESIGN.md §7).
type MvccStats struct {
	SnapshotBegins uint64 `json:"snapshot_begins"`               // read-only snapshots pinned
	SnapshotReads  uint64 `json:"snapshot_reads"`                // reads + scans served on the snapshot path
	ChainReads     uint64 `json:"chain_reads"`                   // reads answered from a version chain
	Installs       uint64 `json:"installs"`                      // version nodes installed
	GCNodes        uint64 `json:"gc_nodes"`                      // nodes reclaimed
	GCSweeps       uint64 `json:"gc_sweeps"`                     // whole-table sweeps
	LiveNodes      int64  `json:"live_nodes" metric:"gauge"`     // nodes currently linked
	SnapshotFloor  uint64 `json:"snapshot_floor" metric:"gauge"` // the snapshot a new pin takes: the log's filled frontier less one

	SIBegins         uint64 `json:"si_begins"`          // snapshot-isolation writers begun
	SICommits        uint64 `json:"si_commits"`         // SI writers committed
	SIConflictAborts uint64 `json:"si_conflict_aborts"` // SI writers aborted by first-committer-wins
	SnapshotsExpired uint64 `json:"snapshots_expired"`  // snapshot transactions that left past Config.MaxSnapshotAge

	ActiveSnapshots     int   `json:"active_snapshots" metric:"gauge"`       // snapshots currently pinned
	OldestSnapshotAgeNs int64 `json:"oldest_snapshot_age_ns" metric:"gauge"` // age of the oldest pinned snapshot
}

// mvccStats reads the version store's counters and, in one walk of the
// live registry, its pins.
func (e *Engine) mvccStats() MvccStats {
	vt := e.mvcc
	st := MvccStats{
		SnapshotBegins: vt.snapBegins.Load(),
		SnapshotReads:  vt.snapReads.Load(),
		ChainReads:     vt.chainReads.Load(),
		Installs:       vt.installs.Load(),
		GCNodes:        vt.gcNodes.Load(),
		GCSweeps:       vt.gcSweeps.Load(),
		LiveNodes:      vt.liveNodes.Load(),
		SnapshotFloor:  vt.snapFloor.Load(),

		SIBegins:         vt.siBegins.Load(),
		SICommits:        vt.siCommits.Load(),
		SIConflictAborts: vt.siConflicts.Load(),
		SnapshotsExpired: vt.snapExpired.Load(),
	}
	now, bornAfter := obs.Now(), e.cutoff()
	for s := e.live.head.Load(); s != nil; s = s.next {
		if s.livePin(bornAfter) != noSnapshot {
			st.ActiveSnapshots++
			st.OldestSnapshotAgeNs = max(st.OldestSnapshotAgeNs, now-s.born.Load())
		}
	}
	return st
}
