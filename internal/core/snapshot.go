// Snapshot-read execution path: lock-free reads over the MVCC version
// chains (see mvcc.go for the version store itself). A transaction
// begun with Intent.ReadOnly or Intent.Optimistic on an engine with
// Config.MVCC reads a fixed snapshot of the database: every
// transaction whose outcome record lay below the log's filled frontier
// at begin. Point reads and scans —
// including rows deleted or rewritten by transactions committing
// concurrently — all resolve against that one state; reads take no
// transactional locks, writers never block the reader, and it never
// blocks writers.
package core

import (
	"errors"
	"fmt"

	"hydra/internal/btree"
	"hydra/internal/heap"
)

// SnapshotLSN returns the snapshot a snapshot-mode transaction pinned
// at begin, or 0 for transactions the lock manager (or a partition
// owner) isolates.
func (t *Txn) SnapshotLSN() uint64 { return t.snap }

// notFoundError is the canonical missing-key error. A miss is an
// ordinary outcome that most callers only test with errors.Is (the wire
// SET's Update-then-Insert does so once per loaded row), so the text is
// rendered when somebody asks for it and not before.
type notFoundError struct {
	tbl *Table
	key uint64
}

func (e *notFoundError) Error() string {
	return fmt.Sprintf("%v: table %s key %d", ErrNotFound, e.tbl.Name, e.key)
}

func (e *notFoundError) Unwrap() error { return ErrNotFound }

func notFound(tbl *Table, key uint64) error {
	return &notFoundError{tbl: tbl, key: key}
}

// indexReadErr distinguishes a true index miss from an infrastructure
// failure (buffer-pool IO error, WAL-poison shutdown surfacing through
// a page read): only the former becomes ErrNotFound; everything else
// propagates as the fault it is.
func indexReadErr(err error, tbl *Table, key uint64) error {
	if errors.Is(err, btree.ErrNotFound) {
		return notFound(tbl, key)
	}
	return fmt.Errorf("core: table %s key %d: index read: %w", tbl.Name, key, err)
}

// snapshotRead is Read on the snapshot path: index probe and heap read
// under physical latches only, then a chain check. The page's version
// epoch gates the chain lookup — a zero epoch proves no versioned
// write ever touched the page, so the row just read is the snapshot
// row. The check runs after the heap read: version install happens
// inside the writer's page X-latch window, so any write whose effect
// the reader observed had installed its node before the reader's S
// latch was granted — and the node outlives the writer (commit AND
// abort stamp it in place rather than unlinking), so the check cannot
// miss it — while the snapshot is not overdue: the read checks that
// after it has read, when whatever pruned its chains would show
// (Engine.pin).
func (t *Txn) snapshotRead(tbl *Table, key uint64) (val []byte, err error) {
	defer func() {
		if t.expired() {
			val, err = nil, ErrSnapshotExpired
		}
	}()
	if testHookSnapshotRead != nil {
		testHookSnapshotRead()
	}
	e := t.e
	e.mvcc.snapReads.Inc()
	// Bypass accounting: the locked path would have taken IS(table) +
	// S(row).
	e.locks.NoteBypass(2)
	// found stays false when the key is absent from the index (it never
	// existed, or a newer transaction deleted it) or its row vanished
	// between the index probe and the heap read (a concurrent delete or
	// move): the chain decides, as it does on a page a versioned write
	// touched.
	var rec []byte
	var epoch uint32
	found := false
	packed, err := tbl.Index.GetC(key, &t.clock)
	if err == nil {
		rec, epoch, err = tbl.Heap.ReadVersionedC(heap.Unpack(packed), &t.clock)
		if found = err == nil; !found && !errors.Is(err, heap.ErrNotFound) {
			return nil, err
		}
	} else if !errors.Is(err, btree.ErrNotFound) {
		return nil, indexReadErr(err, tbl, key)
	}
	if !found || epoch != 0 {
		if v, blocked := e.mvcc.resolve(tbl.ID, key, t.snap, &t.clock); blocked {
			e.mvcc.chainReads.Inc()
			if v == nil {
				return nil, notFound(tbl, key)
			}
			return append([]byte(nil), rowValue(v)...), nil
		}
	}
	if !found {
		return nil, notFound(tbl, key)
	}
	return rowValue(rec), nil
}

// testHookSnapshotRead, when set, runs where a snapshot read has
// begun and not yet read, and before applyWriteSet's validation: tests
// use it to expire the snapshot in between.
var testHookSnapshotRead func()

// snapScanChunk bounds the rows a snapshot scan buffers per merge
// round; it is a variable only so tests can shrink it to exercise
// chunk boundaries.
var snapScanChunk = 512

// snapshotScan is Scan on the snapshot path. It works in chunks: walk
// up to snapScanChunk index entries buffering their heap rows, then
// resolve every chained key in the walked span against the snapshot
// (collectRange), then emit the merge of the two in key order — the
// chain result overrides a buffered row, supplies rows whose index
// entry a concurrent delete already removed, and hides rows created
// after the snapshot.
//
// Resolving AFTER the walk is what makes the scan exhaustive: a
// concurrent delete removes the index entry only after installing its
// version node (install happens inside the page X-latch window of the
// write, before the removal is observable), so any key the walk could
// have missed has a blocking chain entry by the time the walk ends,
// and the collect sees it. The reverse order — the pre-resolve this
// path originally used — left a window where a delete landing between
// the resolve and the walk escaped both. Chains that block this
// snapshot cannot be GC'd while it is pinned (the watermark never
// passes the oldest pin), so the late collect also cannot lose
// entries to pruning. Buffered heap rows are safe to emit when the
// collect does not override them: any write that changed a walked row
// after its read — including a now-rolled-back abort, whose nodes are
// stamped in place rather than unlinked — still blocks the chain at
// collect time. An overdue snapshot's chains may be pruned, so each
// chunk checks it after its collect, before it emits (Engine.pin).
func (t *Txn) snapshotScan(tbl *Table, lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	e := t.e
	e.mvcc.snapReads.Inc()
	e.locks.NoteBypass(1) // the locked path's table S lock
	type walkedRow struct {
		key uint64
		rec []byte
	}
	var walked []walkedRow
	cursor := lo
	for {
		walked = walked[:0]
		full := false
		last := cursor
		var readErr error
		if err := tbl.Index.ScanC(cursor, hi, &t.clock, func(key, packed uint64) bool {
			last = key
			rec, rerr := tbl.Heap.ReadC(heap.Unpack(packed), &t.clock)
			if rerr != nil {
				if !errors.Is(rerr, heap.ErrNotFound) {
					readErr = rerr
					return false
				}
				// Row vanished between index probe and heap read: if it
				// was visible at the snapshot, the remover's chain entry
				// supplies it in the collect below.
				return true
			}
			walked = append(walked, walkedRow{key: key, rec: rec})
			if len(walked) >= snapScanChunk {
				full = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if readErr != nil {
			return readErr
		}
		spanHi := hi
		if full {
			spanHi = last
		}
		pre, extras := e.mvcc.collectRange(tbl.ID, cursor, spanHi, t.snap, &t.clock)
		if t.expired() {
			return ErrSnapshotExpired
		}
		if len(pre) > 0 {
			e.mvcc.chainReads.Add(uint64(len(pre)))
		}
		ei := 0
		for i := range walked {
			r := &walked[i]
			// Chain-only keys (deleted after the snapshot; absent from
			// the walk) interleave in key order.
			for ei < len(extras) && extras[ei] < r.key {
				k := extras[ei]
				ei++
				if !fn(k, rowValue(pre[k])) {
					return nil
				}
			}
			if ei < len(extras) && extras[ei] == r.key {
				ei++ // emitted via the override below, not as an extra
			}
			rec := r.rec
			if v, chained := pre[r.key]; chained {
				if v == nil {
					continue // created after the snapshot: invisible
				}
				rec = v
			}
			if !fn(r.key, rowValue(rec)) {
				return nil
			}
		}
		for ei < len(extras) {
			k := extras[ei]
			ei++
			if !fn(k, rowValue(pre[k])) {
				return nil
			}
		}
		if !full || spanHi >= hi {
			return nil
		}
		cursor = spanHi + 1
	}
}
