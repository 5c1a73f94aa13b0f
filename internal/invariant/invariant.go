// Package invariant declares hydra's latch hierarchy and the ranked
// lock types that take it, and is the runtime assertion layer: latches
// must be acquired in ascending tier order, and sync.Pool objects must
// be owned by exactly one holder between Get and Put.
//
// Every lock of the hierarchy is declared with a ranked type, Mutex[T],
// RWMutex[T] or (for the page latches, whose lock is chosen at run
// time) RWLock[T, L, P], whose tier T is part of the declaration
// (invariant.Mutex[invariant.PoolShard]). A tier is declared once, in
// the table below: its rank, the lock it ranks, and its label in
// hydra_latch_acquires_total{tier=…}. So no acquisition can skip the
// rank check or the profile.
//
// In every build a ranked lock counts each acquisition in its tier's
// obs.AcquireProf and times 1 in 64 of them: a Lock, a successful
// TryLock and a sync.Cond's re-lock count once each. Its clocked
// acquire (LockC, RLockC) is for a caller that holds an obs.PhaseClock:
// it tries first, and only a contended wait reads the clock and goes to
// the clock's latch-wait phase.
//
// The rank checks are compiled in only under the `hydradebug` build
// tag (`go test -tags hydradebug ...`, see `make stress`); without it
// every assertion in this package is an empty no-op that the compiler
// inlines away. Violations panic immediately with the offending sites,
// which turns a once-in-a-million-schedules deadlock or double-free
// into a deterministic test failure at the first wrong acquisition.
package invariant

import "hydra/internal/obs"

// Tier is one rank of the latch hierarchy, as a type. Lower ranks must
// be acquired first; acquiring a lower rank while holding a higher one
// is an ordering violation; equal ranks nest freely (hand-over-hand
// crabbing). Only this package defines tiers.
type Tier interface{ tier() *tier }

// tier is the one declaration of a tier.
type tier struct {
	rank int
	site string // the lock it ranks, as latch-order panics name it
	prof *obs.AcquireProf
}

func declare(rank int, site, label string) *tier {
	return &tier{rank: rank, site: site, prof: obs.NewAcquireProf(label, rank)}
}

// The hierarchy, lowest rank first: each tier's rank, the lock it
// ranks, and its /metrics label. DESIGN.md §6 documents it.
var (
	engineCkpt = declare(10, "core.Engine.ckptMu", "engine_ckpt")
	engineMu   = declare(20, "core.Engine.mu", "engine_mu")
	treeMu     = declare(40, "btree.Tree.mu", "tree")
	lockPart   = declare(50, "lock.partition.mu", "lock_part")
	frameLatch = declare(60, "buffer.Frame.Latch", "frame_latch")
	mvccShard  = declare(62, "core.verShard.mu", "mvcc_shard") // spliced under the heap page's X latch by logOp
	heapTail   = declare(64, "heap.File.mu", "heap_tail")      // the chain extension sets it under the full page's X latch
	poolShard  = declare(70, "buffer.shard.mu", "pool_shard")
	walLog     = declare(80, "wal.Log.mu", "wal_log")
	walWait    = declare(82, "wal.Log.waitMu", "wal_wait")
	walDevice  = declare(84, "wal.FileDevice.mu", "wal_device")
	doraQueue  = declare(90, "sync2.Queue.mu", "dora_queue") // DORA executor inboxes
)

type (
	EngineCkpt struct{}
	EngineMu   struct{}
	Tree       struct{}
	LockPart   struct{}
	FrameLatch struct{}
	MVCCShard  struct{}
	HeapTail   struct{}
	PoolShard  struct{}
	WALLog     struct{}
	WALWait    struct{}
	WALDevice  struct{}
	DoraQueue  struct{}
)

func (EngineCkpt) tier() *tier { return engineCkpt }
func (EngineMu) tier() *tier   { return engineMu }
func (Tree) tier() *tier       { return treeMu }
func (LockPart) tier() *tier   { return lockPart }
func (FrameLatch) tier() *tier { return frameLatch }
func (MVCCShard) tier() *tier  { return mvccShard }
func (HeapTail) tier() *tier   { return heapTail }
func (PoolShard) tier() *tier  { return poolShard }
func (WALLog) tier() *tier     { return walLog }
func (WALWait) tier() *tier    { return walWait }
func (WALDevice) tier() *tier  { return walDevice }
func (DoraQueue) tier() *tier  { return doraQueue }
