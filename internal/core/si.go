// Snapshot-isolation writer transactions: reads ride the lock-free
// snapshot path (snapshot.go), writes buffer into a per-transaction
// write set, and commit validates first-committer-wins against the
// version chains (mvcc.go) before applying the buffered writes under
// the ordinary per-row locks and commit stamp.
//
// Protocol:
//
//  1. Begin (Intent.Optimistic, or ReadOnly, with Config.MVCC on) pins
//     a snapshot. Reads resolve against it with zero lock-manager
//     traffic, overlaid with the transaction's own buffered writes. A
//     read-only snapshot transaction is the same thing with a write
//     set that stays empty: its Commit has nothing to validate or log.
//  2. Writes never touch the heap: each Insert/Update/Delete folds
//     into the write set as the key's net effect relative to the
//     snapshot (insert-then-delete nets out; delete-then-insert nets
//     to an update). Existence errors (ErrExists, ErrNotFound) are
//     decided against the snapshot + write set, so they are stable no
//     matter what concurrent writers commit.
//  3. Commit sorts the write set by (table, key) and takes the usual
//     IX table + X row locks in that global order (SI committers can
//     therefore never deadlock each other; against locked writers a
//     deadlock is possible and retried like any other victim).
//  4. Validation, under those X locks: a chain head on any written
//     key that is pending or stamped after the snapshot means some
//     transaction committed the row since this one began — the
//     second committer's Commit returns ErrWriteConflict (retryable)
//     with the transaction still active; nothing was logged, so the
//     caller's Abort releases nothing into the chains. The snapshot's
//     own pin guarantees a conflicting node cannot have been GC'd (the
//     watermark never passes the pin).
//  5. Apply: the buffered writes run through the ordinary logged
//     write bodies (Txn.insert/update/delete), which log, install
//     version nodes, and maintain indexes exactly like a locked
//     writer. The log then stamps those nodes with the commit record's
//     LSN before the record joins the filled prefix the snapshot floor
//     follows, so read-only snapshots and locked writers interoperate
//     with SI committers unchanged.
package core

import (
	"errors"
	"fmt"
	"sort"

	"hydra/internal/lock"
)

// siWrite kinds: the net effect a buffered key carries.
const (
	siWritePut    byte = iota // row exists at commit with value
	siWriteDelete             // row absent at commit
)

// siWrite is one buffered snapshot-isolation write: the key's net
// effect relative to the transaction's snapshot.
type siWrite struct {
	tbl   *Table
	kind  byte
	base  bool   // key existed at the snapshot (fixed at first touch)
	value []byte // owned copy; nil for deletes
}

// siRead is Read/ReadForUpdate in snapshot mode: the transaction's own
// buffered write wins, otherwise the pinned snapshot answers.
func (t *Txn) siRead(tbl *Table, key uint64) ([]byte, error) {
	if w, ok := t.writeSet[verKey{table: tbl.ID, key: key}]; ok {
		if w.kind == siWriteDelete {
			return nil, notFound(tbl, key)
		}
		return append([]byte(nil), w.value...), nil
	}
	return t.snapshotRead(tbl, key)
}

// siInsert buffers an insert; duplicate keys (against the snapshot
// overlaid with the write set) fail with ErrExists.
func (t *Txn) siInsert(tbl *Table, key uint64, value []byte) error {
	return t.siBuffer(tbl, key, siWritePut, false, value)
}

// siUpdate buffers an update; a key absent from the snapshot + write
// set fails with ErrNotFound.
func (t *Txn) siUpdate(tbl *Table, key uint64, value []byte) error {
	return t.siBuffer(tbl, key, siWritePut, true, value)
}

// siDelete buffers a delete; a key absent from the snapshot + write
// set fails with ErrNotFound. Deleting a key this transaction
// inserted nets out: the entry stays for validation but applies
// nothing.
func (t *Txn) siDelete(tbl *Table, key uint64) error {
	return t.siBuffer(tbl, key, siWriteDelete, true, nil)
}

// siBuffer folds one write into the write set as the key's net effect.
// wantPresent says whether the operation needs the key to exist
// (Update, Delete) or to be absent (Insert); presence is the write
// set's answer once the key is staged and the snapshot's on first
// touch, which is also when base is fixed and the key joins siKeys
// (the scan overlay iterates it; commit sorts it).
func (t *Txn) siBuffer(tbl *Table, key uint64, kind byte, wantPresent bool, value []byte) error {
	k := verKey{table: tbl.ID, key: key}
	w, staged := t.writeSet[k]
	present := w.kind == siWritePut
	if !staged {
		_, err := t.snapshotRead(tbl, key)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		present = err == nil
		w = siWrite{tbl: tbl, base: present}
	}
	if present != wantPresent {
		if present {
			return fmt.Errorf("%w: table %s key %d", ErrExists, tbl.Name, key)
		}
		return notFound(tbl, key)
	}
	w.kind, w.value = kind, nil
	if kind == siWritePut {
		w.value = append([]byte(nil), value...)
	}
	if !staged {
		t.siKeys = append(t.siKeys, k)
	}
	t.writeSet[k] = w
	return nil
}

// siScan is Scan on the SI path: the snapshot scan merged, in key
// order, with the transaction's buffered writes — puts override or
// extend the snapshot rows, deletes hide them.
func (t *Txn) siScan(tbl *Table, lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	if len(t.siKeys) == 0 {
		return t.snapshotScan(tbl, lo, hi, fn)
	}
	type overlay struct {
		key uint64
		del bool
		val []byte
	}
	var ovl []overlay
	for _, k := range t.siKeys {
		if k.table != tbl.ID || k.key < lo || k.key > hi {
			continue
		}
		w := t.writeSet[k]
		ovl = append(ovl, overlay{key: k.key, del: w.kind == siWriteDelete, val: w.value})
	}
	sort.Slice(ovl, func(i, j int) bool { return ovl[i].key < ovl[j].key })
	i := 0
	stopped := false
	err := t.snapshotScan(tbl, lo, hi, func(key uint64, value []byte) bool {
		for i < len(ovl) && ovl[i].key < key {
			o := ovl[i]
			i++
			if !o.del && !fn(o.key, o.val) {
				stopped = true
				return false
			}
		}
		if i < len(ovl) && ovl[i].key == key {
			o := ovl[i]
			i++
			if o.del {
				return true
			}
			if !fn(key, o.val) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(key, value) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	for ; i < len(ovl); i++ {
		if !ovl[i].del && !fn(ovl[i].key, ovl[i].val) {
			return nil
		}
	}
	return nil
}

// applyWriteSet is the snapshot-isolation half of Commit: lock the
// write set in global order, validate first-committer-wins, and run
// the buffered writes through the logged write bodies (see the
// protocol at the top of this file). On any error the transaction is
// still active and the caller's Abort cleans up: the cheap unlogged
// retire after an expired snapshot, a lock victim or a lost
// validation (nothing reached the heap), the normal undo path after a
// partial apply.
func (t *Txn) applyWriteSet() error {
	keys := t.siKeys
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.table != b.table {
			return a.table < b.table
		}
		return a.key < b.key
	})
	for _, k := range keys {
		if err := t.acquire(lock.TableName(k.table), lock.IX); err != nil {
			return err
		}
		if err := t.acquire(lock.RowName(k.table, k.key), lock.X); err != nil {
			return err
		}
	}
	// First-committer-wins validation under the row X locks: see
	// verTable.hasConflict for why the chain head check is sufficient
	// and why the pin makes it sound against GC — while the snapshot is
	// not overdue, which is checked after validation (Engine.pin).
	if testHookSnapshotRead != nil {
		testHookSnapshotRead()
	}
	for _, k := range keys {
		if t.e.mvcc.hasConflict(k.table, k.key, t.snap, &t.clock) {
			t.e.mvcc.siConflicts.Inc()
			return ErrWriteConflict
		}
	}
	if t.expired() {
		return ErrSnapshotExpired
	}
	// Validation passed under the X locks, so for every written key the
	// heap state equals the snapshot state and the staged existence
	// decisions hold.
	for _, k := range keys {
		w := t.writeSet[k]
		var err error
		switch {
		case w.kind == siWriteDelete && !w.base:
			continue // insert-then-delete nets out
		case w.kind == siWriteDelete:
			err = t.delete(w.tbl, k.key)
		case w.base:
			err = t.update(w.tbl, k.key, w.value)
		default:
			err = t.insert(w.tbl, k.key, w.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
