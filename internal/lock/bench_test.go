package lock

import (
	"sync/atomic"
	"testing"
)

// BenchmarkLockAcquireRelease measures the full acquire/release cycle
// of a short transaction — one intent lock, a handful of row locks,
// then ReleaseAll — on a partitioned table with one goroutine per
// core, each with one holder Reset between transactions as the engine
// does. Rows are disjoint per goroutine, so the numbers isolate
// lock-manager bookkeeping overhead (and its allocations) rather than
// conflict waits.
func BenchmarkLockAcquireRelease(b *testing.B) {
	m := NewManager(Options{Partitions: 64})
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := seq.Add(1)
		txn := worker << 32
		h := m.NewHolder(txn)
		i := uint64(0)
		for pb.Next() {
			txn++
			i++
			h.Reset(txn)
			if err := h.Acquire(TableName(1), IX); err != nil {
				b.Error(err)
				return
			}
			for r := uint64(0); r < 4; r++ {
				key := worker<<40 | i<<2 | r
				if err := h.Acquire(RowName(1, key), X); err != nil {
					b.Error(err)
					return
				}
			}
			h.ReleaseAll()
		}
	})
}

// BenchmarkAcquireReleaseChurn is the distinct-name churn shape the
// freelist targets: every transaction locks four rows never seen
// before, so each acquire is a table miss and each ReleaseAll retires
// the heads. Without the freelist every miss allocated a lockHead and
// its grant map; with it, steady state pops retired heads back off
// the partition freelist and allocs/op drops to the grants
// themselves. The recycle-ratio metric should sit near 1.0 once warm.
func BenchmarkAcquireReleaseChurn(b *testing.B) {
	m := NewManager(Options{Partitions: 64})
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := seq.Add(1)
		txn := worker << 32
		h := m.NewHolder(txn)
		i := uint64(0)
		for pb.Next() {
			txn++
			i++
			h.Reset(txn)
			for r := uint64(0); r < 4; r++ {
				key := worker<<40 | i<<2 | r
				if err := h.Acquire(RowName(1, key), X); err != nil {
					b.Error(err)
					return
				}
			}
			h.ReleaseAll()
		}
	})
	st := m.StatsSnapshot()
	if tot := st.HeadAllocs + st.HeadRecycles; tot > 0 {
		b.ReportMetric(float64(st.HeadRecycles)/float64(tot), "recycle-ratio")
	}
}

// BenchmarkAcquireReleaseChurn500 is the bulk loader's shape: one
// transaction alone on a table asks for 500 rows never seen before —
// the table's IX, then the row's X, as the engine does — and releases.
// From its 64th row on the table lock it converted to answers, so a
// row costs what two look-ups in the holder cost: table_ops/row is
// 65/500, and the benchmark fails when the rows keep going to the
// table.
func BenchmarkAcquireReleaseChurn500(b *testing.B) {
	const batch = 500
	m := NewManager(Options{Partitions: 64})
	h := m.NewHolder(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Reset(uint64(i + 2))
		for r := 0; r < batch; r++ {
			if h.Acquire(TableName(1), IX) != nil || h.Acquire(RowName(1, uint64(i*batch+r)), X) != nil {
				b.Fatal("acquire failed")
			}
		}
		h.ReleaseAll()
	}
	rows := float64(b.N * batch)
	visits := float64(m.StatsSnapshot().TableOps) / rows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(visits, "table_ops/row")
	if visits > 0.15 {
		b.Fatalf("a row of a lone 500-row transaction visits the lock table %.3f times, want <= 0.15", visits)
	}
}
