// Package invariant is hydra's runtime assertion layer and its one
// latch-order checker: latches must be acquired in ascending tier
// order, and sync.Pool objects must be owned by exactly one holder
// between Get and Put.
//
// Every lock of the hierarchy is declared with a ranked type,
// Mutex[T] or RWMutex[T], whose tier T is part of the declaration
// (invariant.Mutex[invariant.PoolShard]), so no acquisition can skip
// the check. The page latches (internal/latch) record their tier with
// Acquired/Released themselves.
//
// The checks are compiled in only under the `hydradebug` build tag
// (`go test -tags hydradebug ...`, see `make stress`). Without the tag
// Mutex[T] and RWMutex[T] are aliases of sync.Mutex and sync.RWMutex
// and every function in this package is an empty no-op that the
// compiler inlines away, so release builds run exactly the sync calls.
// Violations panic immediately with the offending sites, which turns a
// once-in-a-million-schedules deadlock or double-free into a
// deterministic test failure at the first wrong acquisition.
package invariant

// TierFrameLatch is the rank of the page latches (buffer.Frame.Latch);
// equal ranks nest freely (hand-over-hand crabbing).
const TierFrameLatch = 60

// Tier is one rank of the latch hierarchy, as a type. Lower ranks must
// be acquired first; acquiring a lower rank while holding a higher one
// is an ordering violation. The methods below are the single source of
// truth for the hierarchy, and the table in DESIGN.md §6 documents
// them. Only this package defines tiers.
type Tier interface{ rank() (int, string) }

type (
	EngineCkpt  struct{}
	EngineMu    struct{}
	MVCCPublish struct{}
	MVCCSnap    struct{}
	Tree        struct{}
	LockPart    struct{}
	TxnMu       struct{}
	MVCCShard   struct{}
	PoolShard   struct{}
	WALLog      struct{}
	WALWait     struct{}
	WALDevice   struct{}
	DoraQueue   struct{}
)

func (EngineCkpt) rank() (int, string)  { return 10, "core.Engine.ckptMu" }
func (EngineMu) rank() (int, string)    { return 20, "core.Engine.mu" }
func (MVCCPublish) rank() (int, string) { return 32, "core.verTable.publishMu" } // held across the commit/end append
func (MVCCSnap) rank() (int, string)    { return 34, "core.verTable.snapMu" }    // ascends into verShard.mu via sweep
func (Tree) rank() (int, string)        { return 40, "btree.Tree.mu" }
func (LockPart) rank() (int, string)    { return 50, "lock.partition.mu" }
func (TxnMu) rank() (int, string)       { return 61, "core.Txn.mu" }      // taken under the heap page's X latch by logOp
func (MVCCShard) rank() (int, string)   { return 62, "core.verShard.mu" } // spliced under page latches and Txn.mu
func (PoolShard) rank() (int, string)   { return 70, "buffer.shard.mu" }
func (WALLog) rank() (int, string)      { return 80, "wal.Log.mu" }
func (WALWait) rank() (int, string)     { return 82, "wal.Log.waitMu" }
func (WALDevice) rank() (int, string)   { return 84, "wal.FileDevice.mu" }
func (DoraQueue) rank() (int, string)   { return 90, "sync2.Queue.mu" } // DORA executor inboxes
