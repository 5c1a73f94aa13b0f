// Package core is the storage manager itself — the paper's subject.
// It composes the substrates (buffer pool, write-ahead log, lock
// manager, heap files, B+-tree indexes) into a transactional engine
// with ARIES-style recovery, and exposes two named configurations:
//
//   - Conventional (the "single-threaded Atlas"): centralized lock
//     table, serial log buffer, unpartitioned buffer pool, coarse
//     index locking. Fastest at one thread.
//   - Scalable (the "multi-threaded Lernaean Hydra"): partitioned
//     lock table, Aether-style consolidated log inserts, partitioned
//     buffer pool, latch-crabbing indexes, early lock release.
//
// Every experiment in EXPERIMENTS.md runs the same workload against
// both and reports the crossover.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/btree"
	"hydra/internal/buffer"
	"hydra/internal/heap"
	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/lock"
	"hydra/internal/obs"
	"hydra/internal/page"
	"hydra/internal/wal"
)

// metaPageID is the catalog page.
const metaPageID page.ID = 0

// Config selects the engine's structural variants.
type Config struct {
	// Dir holds the data and log files; empty means fully in-memory
	// (tests and CPU-bound experiments).
	Dir string

	// Frames is the buffer pool size in pages. Default 4096.
	Frames int
	// BufferShards partitions the buffer pool. Default 1.
	BufferShards int
	// LatchKind selects page latch implementation.
	LatchKind latch.Kind

	// LogKind selects the log-insert algorithm.
	LogKind wal.BufferKind
	// LogBufferSize is the WAL ring size. Default 8 MiB.
	LogBufferSize int
	// LogSegmentBytes, when positive (and Dir is set), cuts the WAL
	// into segment files of that size, which checkpoints recycle; 0
	// keeps it in one file that only grows.
	LogSegmentBytes int64
	// SyncCommit forces commits to wait for log durability.
	SyncCommit bool

	// LockPartitions shards the lock table. Default 1.
	LockPartitions int
	// LockTimeout bounds lock waits (deadlock safety net).
	LockTimeout time.Duration

	// IndexMode selects the B+-tree concurrency discipline.
	IndexMode btree.Mode

	// ELR enables early lock release: locks are dropped at the commit
	// record's insertion rather than after its flush.
	ELR bool

	// MVCC enables undo-based version chains: writers keep
	// before-images reachable from the row, stamped with their commit
	// LSN. It is the one switch behind Intent: with it on, ReadOnly
	// transactions read a snapshot with zero lock-manager traffic and
	// Optimistic ones run under snapshot isolation; with it off both
	// fall back to locks. Off by default in both named configurations —
	// writers pay a version install per logged op, so it is opted into
	// by read-mostly workloads.
	MVCC bool

	// MaxSnapshotAge, when positive, is a snapshot transaction's
	// deadline: once it is older than this it is expired. Its pin stops
	// holding the version-chain GC watermark (a raise sampled as
	// version-installing writers finish passes it, so dead versions
	// sweep exactly when chains are growing), and its next read or
	// commit fails with ErrSnapshotExpired (retryable) — whether or not
	// a raise has passed its pin yet. 0 — the default — never expires a
	// snapshot; long analytic snapshots then stall GC for their whole
	// lifetime.
	MaxSnapshotAge time.Duration
}

// Conventional returns the baseline configuration: every construct in
// its classic centralized form.
func Conventional() Config {
	return Config{
		Frames:         4096,
		BufferShards:   1,
		LatchKind:      latch.Blocking,
		LogKind:        wal.Serial,
		LockPartitions: 1,
		LockTimeout:    2 * time.Second,
		IndexMode:      btree.Coarse,
		SyncCommit:     true,
	}
}

// Scalable returns the configuration with every scalable variant
// switched on.
func Scalable() Config {
	return Config{
		Frames:         4096,
		BufferShards:   16,
		LatchKind:      latch.Spinning,
		LogKind:        wal.Consolidated,
		LockPartitions: 16,
		LockTimeout:    2 * time.Second,
		IndexMode:      btree.Crabbing,
		SyncCommit:     true,
		ELR:            true,
	}
}

func (c *Config) fill() {
	if c.Frames <= 0 {
		c.Frames = 4096
	}
	if c.BufferShards <= 0 {
		c.BufferShards = 1
	}
	if c.LockPartitions <= 0 {
		c.LockPartitions = 1
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 2 * time.Second
	}
}

// Errors returned by engine operations.
var (
	ErrClosed      = errors.New("core: engine closed")
	ErrNoTable     = errors.New("core: no such table")
	ErrTableExists = errors.New("core: table already exists")
	ErrExists      = errors.New("core: key already exists")
	ErrNotFound    = errors.New("core: key not found")
	ErrTxnDone     = errors.New("core: transaction already finished")
	// ErrLogMismatch refuses to open a store over a log that lacks a
	// record the store names: the master, or the last table creation
	// page 0 absorbed. Such a log is not the one the store was written
	// with (lost, say, and started afresh); its LSNs restart below the
	// store's page LSNs, so redo would skip what it logs next.
	ErrLogMismatch = errors.New("core: the log lacks a record the store names")
	// ErrReadOnlyTxn rejects write operations (and ReadForUpdate) on a
	// transaction begun with Intent.ReadOnly.
	ErrReadOnlyTxn = errors.New("core: read-only transaction")
	// ErrWriteConflict aborts a snapshot-isolation writer whose write
	// set intersects a transaction that committed after its snapshot
	// (first committer wins). Retryable: Exec re-runs the body on a
	// fresh snapshot, like deadlock/timeout victims on the locked path.
	ErrWriteConflict = errors.New("core: snapshot write conflict (first committer wins)")
	// ErrSnapshotExpired reports that the transaction's snapshot
	// outlived Config.MaxSnapshotAge, and with it its hold on
	// version-chain GC.
	// Retryable: a fresh snapshot starts at the current floor.
	ErrSnapshotExpired = errors.New("core: snapshot expired (Config.MaxSnapshotAge)")
)

// Table is a keyed table: a heap file of rows plus a B+-tree index
// from key to record id.
type Table struct {
	ID    uint32
	Name  string
	Heap  *heap.File
	Index *btree.Tree
}

// Engine is the storage manager.
type Engine struct {
	cfg    Config
	store  buffer.PageStore
	pool   *buffer.Pool
	logDev wal.Device
	log    *wal.Log
	locks  *lock.Manager
	// mvcc is the version table backing snapshot reads; always
	// allocated (so stats and release paths need no nil checks), only
	// populated when cfg.MVCC is on.
	mvcc *verTable

	// cat is the catalog (catalog.go): replaced whole by the holder of
	// page 0's X latch, read with one load.
	cat atomic.Pointer[catalog]

	txnSeq atomic.Uint64
	// commits/aborts are striped (obs.Counter): every worker bumps one
	// of them per transaction, so a shared word would be the kind of
	// hidden global serialization point this engine exists to remove.
	commits obs.Counter
	aborts  obs.Counter
	// absentMemoHits counts inserts that skipped their duplicate probe
	// (Txn.absent).
	absentMemoHits   obs.Counter
	durableReadWaits obs.Counter // Engine.WaitReadsDurable's waits
	closed           atomic.Bool

	// live is the registry of live transactions (live.go): one joins at
	// its snapshot pin or its first write, whichever comes first (join),
	// and leaves in finish.
	live liveList

	// txnPool recycles finished Txn handles (with their undo slices,
	// encode buffers and lock holders) across Begin/finish cycles. It
	// is per-engine so a pooled handle's Holder stays bound to this
	// engine's lock manager.
	txnPool sync.Pool

	// ckptMu serializes whole checkpoints and backups; a checkpoint is
	// IO from end to end.
	//hydra:vet:coarse -- checkpoint/backup serialization lock: the protected operation is IO by nature
	ckptMu invariant.Mutex[invariant.EngineCkpt]

	// RecoveryReport describes what the last Open had to repair.
	RecoveryReport Recovery
}

// Open creates or reopens an engine. Reopening a directory (or the
// in-memory stores passed via OpenWith) runs ARIES recovery. A Dir
// that does not exist yet is created, whichever log layout it gets.
func Open(cfg Config) (*Engine, error) {
	cfg.fill()
	var store buffer.PageStore
	var dev wal.Device
	if cfg.Dir == "" {
		store = buffer.NewMemStore()
		dev = wal.NewMem()
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		fd, err := openLog(cfg.Dir, cfg.LogSegmentBytes)
		if err != nil {
			return nil, err
		}
		dev = fd
		store, err = buffer.OpenFileStore(filepath.Join(cfg.Dir, "pages.db"))
		if err != nil {
			fd.Close()
			return nil, err
		}
	}
	return OpenWith(cfg, store, dev)
}

// openLog opens the log kept in dir: the flat file wal.log, or, when
// segBytes is positive, segments of that size under wal/. A directory
// that holds the other layout is refused — opening it would start an
// empty log beside a populated pages.db.
func openLog(dir string, segBytes int64) (*wal.FileDevice, error) {
	flat, segs := filepath.Join(dir, "wal.log"), filepath.Join(dir, "wal")
	if segBytes > 0 {
		if _, err := os.Stat(flat); err == nil {
			return nil, fmt.Errorf("core: LogSegmentBytes is %d but the log here is the flat file %s, not segments under %s", segBytes, flat, segs)
		}
		return wal.OpenSegmented(segs, segBytes)
	}
	if ents, _ := os.ReadDir(segs); len(ents) > 0 { // an error means no wal/: nothing to refuse
		return nil, fmt.Errorf("core: LogSegmentBytes is 0 but the log here is in segments under %s, not the flat file %s", segs, flat)
	}
	return wal.OpenFile(flat)
}

// poolLog is the engine's log as its buffer pool needs it.
type poolLog struct{ e *Engine }

func (l poolLog) WaitFlushed(pageLSN uint64) error {
	if pageLSN == 0 {
		return nil
	}
	return l.e.log.WaitFlushed(wal.LSN(pageLSN))
}

// Frontier is the filled frontier, a record boundary at or below every
// record not yet appended. It is never 0, which a dirty-page table reads
// as "none": OpenWith starts a log that opens empty with a record
// before any page is touched.
func (l poolLog) Frontier() uint64 { return uint64(l.e.log.FilledLSN()) }

// OpenWith opens an engine over explicit stores; tests use it to
// simulate crashes by reopening the same in-memory stores.
func OpenWith(cfg Config, store buffer.PageStore, dev wal.Device) (*Engine, error) {
	cfg.fill()
	e := &Engine{
		cfg:    cfg,
		store:  store,
		logDev: dev,
	}
	e.cat.Store(&catalog{byName: map[string]*Table{}})
	e.pool = buffer.NewPool(store, buffer.Options{
		Frames:    cfg.Frames,
		Shards:    cfg.BufferShards,
		LatchKind: cfg.LatchKind,
		Log:       poolLog{e},
	})
	n, err := store.NumPages()
	if err != nil {
		return nil, err
	}
	// The log's end is found by scanning. Restart analysis is that scan,
	// from the last checkpoint; the log opens where it stopped.
	var an analysis
	if n > 0 {
		if an, err = e.analyze(); err != nil {
			return nil, fmt.Errorf("core: recovery: %w", err)
		}
	}
	e.log, err = wal.NewFrom(dev, wal.Options{
		Kind:        cfg.LogKind,
		BufferSize:  cfg.LogBufferSize,
		SyncOnFlush: cfg.SyncCommit,
	}, an.end)
	if err != nil {
		return nil, err
	}
	// A log that opens empty starts with a checkpoint's begin marker, so
	// no page change lands at LSN 0 (Frontier). It is new, or its store
	// names no record of it: no master and no table (analysis refuses a
	// store that names a record its log lacks, ErrLogMismatch). It costs
	// no IO: the first flush after it makes it durable, and restart reads
	// a begin marker without its end as a checkpoint that never finished.
	if e.log.NextLSN() == 0 {
		if _, err := e.log.Append(&wal.Record{Type: wal.RecCheckpoint, PrevLSN: wal.NilLSN}); err != nil {
			return nil, err
		}
	}
	e.locks = lock.NewManager(lock.Options{
		Partitions:  cfg.LockPartitions,
		WaitTimeout: cfg.LockTimeout,
	})
	e.mvcc = newVerTable()

	if n == 0 {
		// Fresh database: page 0's first image (no master, an empty
		// catalog) is on disk before anything is logged.
		f, err := e.pool.NewPage(page.TypeMeta)
		if err != nil {
			return nil, err
		}
		if f.ID() != metaPageID {
			return nil, fmt.Errorf("core: meta page allocated as %d", f.ID())
		}
		rec := binary.LittleEndian.AppendUint64(nil, uint64(wal.NilLSN))
		_, err = f.Page.Insert(append(rec, encodeCatalog(nil)...))
		e.pool.Unpin(f, true)
		if err != nil {
			return nil, err
		}
		if err := e.writeMeta(wal.NilLSN); err != nil {
			return nil, err
		}
	} else if err := e.recover(an); err != nil {
		return nil, fmt.Errorf("core: recovery: %w", err)
	}
	// Chains are volatile: after (re)open there are no versions, so the
	// snapshot floor is simply "everything in the log so far".
	e.advanceFloor()
	return e, nil
}

// CreateTable creates a keyed table. It is a redo-only system action,
// like a heap chain's extension: the heap's head page and the index
// root are allocated first, then one OpCreate record is logged, and
// applyCreate formats the head and adds the table to the catalog on
// page 0, stamping both with the record's LSN. No page is written:
// CreateTable returns once the record is durable, and a restart redoes
// it on whichever page missed it. The index root is not logged; every
// open rebuilds the index. If the log append fails there is no table;
// if only the flush fails, the log is dead and the table is in memory
// alone, like a commit whose flush failed.
func (e *Engine) CreateTable(name string) (*Table, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	t, lsn, err := e.createTable(name)
	if err != nil {
		return nil, err
	}
	if err := e.log.WaitFlushed(lsn); err != nil {
		return nil, err
	}
	return t, nil
}

// createTable is CreateTable up to the durability wait. Page 0's X
// latch orders it against every other creation: the name check, the
// id, the record and the publish all happen under it.
func (e *Engine) createTable(name string) (t *Table, lsn wal.LSN, err error) {
	meta, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return nil, 0, err
	}
	defer e.pool.Unpin(meta, true)
	meta.Latch.Acquire(latch.Exclusive)
	defer meta.Latch.Release(latch.Exclusive)
	cat := e.cat.Load()
	if _, ok := cat.byName[name]; ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	// Once logged, the record must apply: the catalog has to fit.
	rec, err := meta.Page.Read(0)
	if err != nil {
		return nil, 0, fmt.Errorf("core: meta page has no catalog record: %w", err)
	}
	if len(rec)+14+len(name) > page.MaxRecordSize {
		return nil, 0, fmt.Errorf("core: catalog too large for meta page: %w", page.ErrPageFull)
	}
	head, err := e.pool.NewPage(page.TypeHeap)
	if err != nil {
		return nil, 0, err
	}
	defer e.pool.Unpin(head, true)
	idx, err := btree.Create(e.pool, e.cfg.IndexMode)
	if err != nil {
		return nil, 0, err
	}
	op := OpRecord{Op: OpCreate, Table: uint32(len(cat.byID)) + 1, RID: heap.RID{Page: head.ID()}, After: []byte(name)}
	head.Latch.Acquire(latch.Exclusive)
	defer head.Latch.Release(latch.Exclusive)
	e.pool.WillLog(meta)
	e.pool.WillLog(head)
	if lsn, err = e.log.Append(&wal.Record{
		Type:    wal.RecUpdate,
		TxnID:   0, // system action, never undone
		PrevLSN: wal.NilLSN,
		PageID:  uint64(head.ID()),
		Payload: encodeOp(nil, &op),
	}); err != nil {
		return nil, 0, err
	}
	t, err = e.applyCreate(meta, head, &op, uint64(lsn), idx)
	return t, lsn, err
}

// redoCreate applies the OpCreate record op, logged at lsn, to page 0
// and op's heap head page, pinned and X-latched, and unpins them dirty.
func (e *Engine) redoCreate(op *OpRecord, lsn uint64) error {
	meta, err := e.pool.Fetch(metaPageID)
	if err != nil {
		return err
	}
	defer e.pool.Unpin(meta, true)
	head, err := e.pool.Fetch(op.RID.Page)
	if err != nil {
		return err
	}
	defer e.pool.Unpin(head, true)
	meta.Latch.Acquire(latch.Exclusive)
	defer meta.Latch.Release(latch.Exclusive)
	head.Latch.Acquire(latch.Exclusive)
	defer head.Latch.Release(latch.Exclusive)
	_, err = e.applyCreate(meta, head, op, lsn, nil)
	return err
}

// newTable returns the table m describes, with index idx and its
// logging hooks wired.
func (e *Engine) newTable(m TableMeta, idx *btree.Tree) *Table {
	t := &Table{ID: m.ID, Name: m.Name, Heap: heap.Attach(e.pool, m.HeapFirst), Index: idx}
	t.Heap.SetExtendHook(func(oldTail, newTail page.ID) (uint64, error) {
		rec := OpRecord{
			Op:    OpExtend,
			Table: m.ID,
			Key:   uint64(newTail),
			RID:   heap.RID{Page: oldTail},
		}
		var buf [29]byte // an OpExtend record has no images
		lsn, err := e.log.Append(&wal.Record{
			Type:    wal.RecUpdate,
			TxnID:   0, // system action, never undone
			PrevLSN: wal.NilLSN,
			PageID:  uint64(oldTail),
			Payload: encodeOp(buf[:0], &rec),
		})
		return uint64(lsn), err
	})
	if e.cfg.MVCC {
		t.Heap.SetVersioned(true)
	}
	return t
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, error) {
	if t := e.cat.Load().byName[name]; t != nil {
		return t, nil
	}
	// The error keeps a copy, so name does not escape: a caller's
	// string(b) of a name up to 32 bytes is built on its stack.
	return nil, fmt.Errorf("%w: %s", ErrNoTable, strings.Clone(name))
}

// Tables lists the catalog in id order.
func (e *Engine) Tables() []*Table { return slices.Clone(e.cat.Load().byID) }

// Close flushes and shuts down. The engine is unusable afterwards. It
// closes the log, the log device and the store whatever the flush
// returns, and reports every step's error.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	flushErr := e.pool.FlushAll()
	logErr := e.log.Close()
	devErr := e.logDev.Close()
	return errors.Join(flushErr, logErr, devErr, e.store.Close())
}

// Stats aggregates subsystem counters, one metric group per member.
type Stats struct {
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// DurableReadWaits counts commits that logged nothing and waited
	// for what they read to be durable (Engine.WaitReadsDurable).
	DurableReadWaits uint64       `json:"durable_read_waits"`
	Lock             lock.Stats   `json:"lock"`
	Log              wal.Stats    `json:"log"`
	Buffer           buffer.Stats `json:"buffer"`
	Mvcc             MvccStats    `json:"mvcc"`
	Index            IndexStats   `json:"index"`
}

// IndexStats is the index group: every table's index summed, and the
// probes the transactions above them did not make.
type IndexStats struct {
	btree.Stats
	AbsentMemoHits uint64 `json:"absent_memo_hits"` // inserts whose duplicate probe the preceding update's miss answered
}

// StatsSnapshot returns engine-wide counters.
func (e *Engine) StatsSnapshot() Stats {
	return Stats{
		Commits:          e.commits.Load(),
		Aborts:           e.aborts.Load(),
		DurableReadWaits: e.durableReadWaits.Load(),
		Lock:             e.locks.StatsSnapshot(),
		Log:              e.log.StatsSnapshot(),
		Buffer:           e.pool.StatsSnapshot(),
		Mvcc:             e.mvccStats(),
		Index:            e.indexStats(),
	}
}

func (e *Engine) indexStats() IndexStats {
	st := IndexStats{AbsentMemoHits: e.absentMemoHits.Load()}
	for _, t := range e.cat.Load().byID {
		st.Add(t.Index.StatsSnapshot())
	}
	return st
}

// Locks exposes the lock manager (the server's lock surfaces, tools).
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Log exposes the log manager (experiments and tools).
func (e *Engine) Log() *wal.Log { return e.log }

// Pool exposes the buffer pool (experiments and tools).
func (e *Engine) Pool() *buffer.Pool { return e.pool }
