package btree

import (
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/rng"
)

// loadedTree bulk-loads n even keys into a pool that holds all of it
// and returns the tree with its height in pages.
func loadedTree(b *testing.B, m Mode, n int) (*Tree, int) {
	b.Helper()
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 8192, Shards: 16})
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{uint64(i) * 2, uint64(i)}
	}
	tr, err := BulkLoad(pool, m, pairs)
	if err != nil {
		b.Fatal(err)
	}
	_, height := leftmostLeaf(b, tr)
	return tr, height
}

// fetchesPerOp reports the pool fetches the timed loop made per
// operation — the count a descent multiplies and the door does not.
func fetchesPerOp(b *testing.B, tr *Tree, before buffer.Stats) float64 {
	st := tr.pool.StatsSnapshot()
	per := float64(st.Hits+st.Misses-before.Hits-before.Misses) / float64(b.N)
	b.ReportMetric(per, "fetches/op")
	return per
}

const benchKeys = 100000

// BenchmarkBTreeAppend inserts ascending keys past a loaded tree: one
// fetch an insert (the last leaf, through the door), whatever the
// height, and a walk only to split.
func BenchmarkBTreeAppend(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			tr, _ := loadedTree(b, m, benchKeys)
			before := tr.pool.StatsSnapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Insert(uint64(2*benchKeys+i), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if per := fetchesPerOp(b, tr, before); b.N >= 1000 && per > 1.05 {
				b.Fatalf("an append costs %.3f fetches, want <= 1.05", per)
			}
		})
	}
}

// BenchmarkBTreeInsertRandom inserts random odd keys among the loaded
// even ones: one walk, in either mode, so an insert fetches as many
// pages as the tree is high (the odd split refetches nothing).
func BenchmarkBTreeInsertRandom(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			tr, height := loadedTree(b, m, benchKeys)
			src := rng.New(1)
			before := tr.pool.StatsSnapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Insert(uint64(src.Intn(benchKeys))*2+1, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if per := fetchesPerOp(b, tr, before); b.N >= 1000 && per > float64(height)+0.05 {
				b.Fatalf("a random insert costs %.3f fetches in a tree %d pages high", per, height)
			}
		})
	}
}

// BenchmarkBTreeGetRandom reads random present keys: the door must cost
// a probe that does not use it no fetch, so a get never fetches more
// pages than the tree is high.
func BenchmarkBTreeGetRandom(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			tr, height := loadedTree(b, m, benchKeys)
			src := rng.New(1)
			before := tr.pool.StatsSnapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Get(uint64(src.Intn(benchKeys)) * 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if per := fetchesPerOp(b, tr, before); per > float64(height) {
				b.Fatalf("a random get costs %.3f fetches in a tree %d pages high", per, height)
			}
		})
	}
}
