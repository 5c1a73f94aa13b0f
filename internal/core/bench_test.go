package core

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// BenchmarkCommitPipeline measures the full commit path of a small
// read-modify-write transaction — Begin, one locked update (its one
// log record), commit record, group-commit flush wait, lock release —
// under the Scalable configuration over
// in-memory stores. Keys are disjoint per goroutine so the numbers
// isolate pipeline overhead (allocations, log inserts, flush wakeups)
// rather than data contention.
func BenchmarkCommitPipeline(b *testing.B) {
	const keysPerWorker = 512
	cfg := Scalable()
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("bench")
	if err != nil {
		b.Fatal(err)
	}
	// Seed enough rows for the largest plausible GOMAXPROCS.
	seed := e.Begin()
	var val [16]byte
	for k := uint64(0); k < 64*keysPerWorker; k++ {
		if err := seed.Insert(tbl, k, val[:]); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		worker := (seq.Add(1) - 1) % 64
		base := worker * keysPerWorker
		var val [16]byte
		i := uint64(0)
		for pb.Next() {
			i++
			t := e.Begin()
			key := base + i%keysPerWorker
			binary.BigEndian.PutUint64(val[8:], i)
			if err := t.Update(tbl, key, val[:]); err != nil {
				b.Error(err)
				return
			}
			if err := t.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSnapshotRead measures a read-only snapshot transaction on an
// MVCC engine over in-memory stores: Exec with Intent{ReadOnly: true}
// around one Read, so each op joins the live registry, pins the floor,
// resolves the row against its chain and leaves. No writer runs, so
// every reader pins the same snapshot.
func BenchmarkSnapshotRead(b *testing.B) {
	const keys = 4096
	cfg := Scalable()
	cfg.MVCC = true
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("bench")
	if err != nil {
		b.Fatal(err)
	}
	var val [16]byte
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < keys; k++ {
			if err := tx.Insert(tbl, k, val[:]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := seq.Add(1) * 7919
		for pb.Next() {
			i++
			if err := e.Exec(func(tx *Txn) error {
				_, err := tx.Read(tbl, i%keys)
				return err
			}, Intent{ReadOnly: true}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
