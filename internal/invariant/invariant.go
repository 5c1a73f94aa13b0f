// Package invariant is hydra's runtime assertion layer. It checks, in
// running code, the same concurrency invariants that the hydra-vet
// analyzers (internal/analysis) enforce statically: latches must be
// acquired in ascending tier order, and sync.Pool objects must be
// owned by exactly one holder between Get and Put.
//
// The checks are compiled in only under the `hydradebug` build tag
// (`go test -tags hydradebug ...`, see `make stress`); without the tag
// every function in this package is an empty no-op that the compiler
// inlines away, so instrumented hot paths pay nothing in release
// builds. Violations panic immediately with the offending sites, which
// turns a once-in-a-million-schedules deadlock or double-free into a
// deterministic test failure at the first wrong acquisition.
package invariant

// Latch tiers. Lower tiers must be acquired first; acquiring a lower
// tier while holding a higher one is an ordering violation. Equal
// tiers may nest (hand-over-hand crabbing on frame latches).
//
// These constants are the single source of truth for the hierarchy:
// the latchorder analyzer builds its declared ranking from them, and
// the table in DESIGN.md documents them. Adding a lock means adding a
// tier here and a site entry in latchorder.Hierarchy.
const (
	TierEngineCkpt  = 10 // core.Engine.ckptMu
	TierEngineMu    = 20 // core.Engine.mu
	TierTxnMu       = 30 // core.Txn.mu
	TierMVCCPublish = 32 // core.verTable.publishMu (commit publish; ascends into the WAL tiers)
	TierMVCCSnap    = 34 // core.verTable.snapMu (snapshot registry; ascends into verShard.mu via sweep)
	TierTree        = 40 // btree.Tree.mu
	TierLockPart    = 50 // lock.partition.mu
	TierFrameLatch  = 60 // buffer.Frame.Latch
	TierMVCCShard   = 62 // core.verShard.mu (version chains; acquired under page latches on install)
	TierPoolShard   = 70 // buffer.shard.mu
	TierFileStore   = 72 // buffer.FileStore.mu
	TierWALLog      = 80 // wal.Log.mu
	TierWALWait     = 82 // wal.Log.waitMu
	TierWALDevice   = 84 // wal.FileDevice.mu
	TierDoraQueue   = 90 // sync2.Queue.mu (DORA executor inboxes)
)
