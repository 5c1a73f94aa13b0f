package btree

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/rng"
)

func newTree(t testing.TB, mode Mode) *Tree {
	t.Helper()
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 512, Shards: 8})
	tr, err := Create(pool, mode)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func modes() []Mode { return []Mode{Coarse, Crabbing} }

func TestInsertGetSmall(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			for i := uint64(0); i < 100; i++ {
				if err := tr.Insert(i*7, i); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(0); i < 100; i++ {
				v, err := tr.Get(i * 7)
				if err != nil || v != i {
					t.Fatalf("Get(%d) = %d, %v", i*7, v, err)
				}
			}
			if _, err := tr.Get(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpsertReplaces(t *testing.T) {
	for _, m := range modes() {
		tr := newTree(t, m)
		tr.Insert(5, 1)
		tr.Insert(5, 2)
		v, err := tr.Get(5)
		if err != nil || v != 2 {
			t.Fatalf("%v: upsert Get = %d, %v", m, v, err)
		}
		if n, _ := tr.Count(); n != 1 {
			t.Fatalf("%v: Count = %d after upsert", m, n)
		}
	}
}

func TestSplitsManyKeys(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			// Enough keys to force multi-level splits (LeafCap=509).
			const n = 20000
			for i := uint64(0); i < n; i++ {
				// Insert in a shuffled-ish order to exercise both halves.
				k := (i * 2654435761) % (n * 4)
				if err := tr.Insert(k, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < n; i++ {
				k := (i * 2654435761) % (n * 4)
				if _, err := tr.Get(k); err != nil {
					t.Fatalf("Get(%d) after splits: %v", k, err)
				}
			}
		})
	}
}

func TestSequentialInsertAscending(t *testing.T) {
	tr := newTree(t, Crabbing)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c, _ := tr.Count(); c != n {
		t.Fatalf("Count = %d, want %d", c, n)
	}
}

func TestSequentialInsertDescending(t *testing.T) {
	tr := newTree(t, Crabbing)
	const n = 5000
	for i := int64(n - 1); i >= 0; i-- {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c, _ := tr.Count(); c != n {
		t.Fatalf("Count = %d", c)
	}
}

func TestDelete(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			for i := uint64(0); i < 2000; i++ {
				tr.Insert(i, i)
			}
			// Delete the odd keys.
			for i := uint64(1); i < 2000; i += 2 {
				if err := tr.Delete(i); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(0); i < 2000; i++ {
				_, err := tr.Get(i)
				if i%2 == 0 && err != nil {
					t.Fatalf("even key %d lost: %v", i, err)
				}
				if i%2 == 1 && !errors.Is(err, ErrNotFound) {
					t.Fatalf("odd key %d survived: %v", i, err)
				}
			}
			if err := tr.Delete(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete: %v", err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScanRange(t *testing.T) {
	for _, m := range modes() {
		tr := newTree(t, m)
		for i := uint64(0); i < 3000; i++ {
			tr.Insert(i*2, i) // even keys only
		}
		var got []uint64
		err := tr.Scan(100, 120, func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
		if len(got) != len(want) {
			t.Fatalf("%v: scan got %v", m, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: scan[%d] = %d, want %d", m, i, got[i], want[i])
			}
		}
		// Early stop.
		count := 0
		tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("early stop visited %d", count)
		}
		// Cross-leaf full scan is ordered.
		prev := int64(-1)
		tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if int64(k) <= prev {
				t.Fatalf("scan out of order: %d after %d", k, prev)
			}
			prev = int64(k)
			return true
		})
	}
}

// Cross-check against a reference map over a long random op sequence.
func TestAgainstReferenceModel(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			ref := map[uint64]uint64{}
			src := rng.New(2024)
			for op := 0; op < 30000; op++ {
				k := uint64(src.Intn(5000))
				switch src.Intn(3) {
				case 0, 1:
					v := src.Uint64()
					tr.Insert(k, v)
					ref[k] = v
				case 2:
					err := tr.Delete(k)
					_, existed := ref[k]
					if existed && err != nil {
						t.Fatalf("delete existing %d: %v", k, err)
					}
					if !existed && !errors.Is(err, ErrNotFound) {
						t.Fatalf("delete missing %d: %v", k, err)
					}
					delete(ref, k)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for k, want := range ref {
				got, err := tr.Get(k)
				if err != nil || got != want {
					t.Fatalf("Get(%d) = %d, %v; want %d", k, got, err, want)
				}
			}
			if c, _ := tr.Count(); c != len(ref) {
				t.Fatalf("Count = %d, ref %d", c, len(ref))
			}
		})
	}
}

func TestConcurrentInsertsDisjointRanges(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			const workers, per = 8, 2000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w) * 1_000_000
					for i := uint64(0); i < per; i++ {
						if err := tr.Insert(base+i, base+i); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if c, _ := tr.Count(); c != workers*per {
				t.Fatalf("Count = %d, want %d", c, workers*per)
			}
			for w := 0; w < workers; w++ {
				base := uint64(w) * 1_000_000
				for i := uint64(0); i < per; i += 97 {
					if v, err := tr.Get(base + i); err != nil || v != base+i {
						t.Fatalf("Get(%d) = %d, %v", base+i, v, err)
					}
				}
			}
		})
	}
}

// TestConcurrentMixedWorkload: inserts, gets, deletes and scans of one
// key range from eight goroutines, in both modes; a miss is the only
// error an operation may return.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			for i := uint64(0); i < 10000; i++ {
				if err := tr.Insert(i, i); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(w))
					for i := 0; i < 3000; i++ {
						k := uint64(src.Intn(20000))
						var err error
						switch src.Intn(4) {
						case 0:
							err = tr.Insert(k, k)
						case 1:
							_, err = tr.Get(k)
						case 2:
							err = tr.Delete(k)
						case 3:
							err = tr.Scan(k, k+100, func(uint64, uint64) bool { return true })
						}
						if err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("op on key %d: %v", k, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// height returns the tree's height in pages, walking child0 pointers
// under the tree's own lock and latches, so that it may run beside
// writers.
func height(t *testing.T, tr *Tree) int {
	tr.lock(latch.Shared, nil)
	defer tr.unlock(latch.Shared)
	f, err := tr.pool.Fetch(tr.RootID())
	if err != nil {
		t.Error(err)
		return 0
	}
	tr.latch(f, latch.Shared, nil)
	for h := 1; ; h++ {
		n := node{f.Page}
		if n.isLeaf() {
			tr.release(f, latch.Shared, false)
			return h
		}
		cf, err := tr.pool.Fetch(n.child0())
		if err != nil {
			tr.release(f, latch.Shared, false)
			t.Error(err)
			return 0
		}
		tr.latch(cf, latch.Shared, nil)
		tr.release(f, latch.Shared, false)
		f = cf
	}
}

// TestRootSplitUnderTraffic: writers insert disjoint random keys into a
// tree that starts as one empty leaf until it is three levels deep
// (about 170 000 keys), so the root splits in place twice, as a leaf and
// as an interior node, while readers Get acknowledged keys and scan
// short ranges, checking order and values. At the end the root is the
// page Create made, the structure checks, and every acknowledged key
// reads back. Under the hydradebug assertions, which cost a few hundred
// microseconds an insert, it stops at two levels: the leaf root's split.
func TestRootSplitUnderTraffic(t *testing.T) {
	const (
		writers, readers = 4, 2
		most             = 100_000 // keys a writer may insert before the tree must be deep enough
		scanLen          = 50
	)
	deep := 3
	if invariant.Enabled {
		deep = 2
	}
	val := func(k uint64) uint64 { return k*31 + 7 }
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m) // 512 frames: the tree outgrows the pool
			root := tr.RootID()
			var tall, done atomic.Bool
			keys := make([][]uint64, writers)
			acked := make([]atomic.Int64, writers) // keys[w][:acked[w]] are acknowledged
			var wg, rg sync.WaitGroup
			for w := 0; w < writers; w++ {
				keys[w] = make([]uint64, most)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(300 + w))
					for i := 0; i < most && !tall.Load(); i++ {
						k := src.Uint64()>>8*writers + uint64(w)
						if err := tr.Insert(k, val(k)); err != nil {
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
						keys[w][i] = k
						acked[w].Store(int64(i + 1))
						if i%1000 == 999 && height(t, tr) >= deep {
							tall.Store(true)
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func(r int) {
					defer rg.Done()
					src := rng.New(uint64(400 + r))
					for i := 0; !done.Load(); i++ {
						w := src.Intn(writers)
						n := acked[w].Load()
						if n == 0 {
							continue
						}
						k := keys[w][src.Intn(int(n))]
						if i%2 == 0 {
							if v, err := tr.Get(k); err != nil || v != val(k) {
								t.Errorf("Get(%d) of an acknowledged key = %d, %v", k, v, err)
								return
							}
							continue
						}
						seen, prev := 0, uint64(0)
						err := tr.Scan(k, ^uint64(0), func(key, v uint64) bool {
							if (seen == 0 && key != k) || (seen > 0 && key <= prev) || v != val(key) {
								t.Errorf("scan from %d: key %d (value %d) after %d keys, the last %d", k, key, v, seen, prev)
								return false
							}
							seen, prev = seen+1, key
							return seen < scanLen
						})
						if err != nil {
							t.Errorf("Scan from %d: %v", k, err)
						}
						if t.Failed() {
							return
						}
					}
				}(r)
			}
			wg.Wait()
			done.Store(true)
			rg.Wait()
			if t.Failed() {
				return
			}
			total := int64(0)
			for w := range acked {
				total += acked[w].Load()
			}
			if h := height(t, tr); h < deep {
				t.Fatalf("height %d after %d keys", h, total)
			}
			t.Logf("%d levels deep after %d keys", deep, total)
			if got := tr.RootID(); got != root {
				t.Fatalf("root moved from page %d to %d", root, got)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for w := range keys {
				for _, k := range keys[w][:acked[w].Load()] {
					if v, err := tr.Get(k); err != nil || v != val(k) {
						t.Fatalf("Get(%d) = %d, %v after the run", k, v, err)
					}
				}
			}
		})
	}
}

func TestOpenExistingTree(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 512, Shards: 8})
	tr, err := Create(pool, Crabbing)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3000; i++ {
		tr.Insert(i, i+1)
	}
	tr2 := Open(pool, tr.RootID(), Coarse)
	for i := uint64(0); i < 3000; i += 131 {
		if v, err := tr2.Get(i); err != nil || v != i+1 {
			t.Fatalf("reopened Get(%d) = %d, %v", i, v, err)
		}
	}
}

func TestModeString(t *testing.T) {
	if Coarse.String() != "coarse" || Crabbing.String() != "crabbing" {
		t.Fatal("Mode.String mismatch")
	}
}

func BenchmarkGet(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			tr := newTree(b, m)
			const n = 100000
			for i := uint64(0); i < n; i++ {
				tr.Insert(i, i)
			}
			src := rng.New(1)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := src.Split(uint64(b.N))
				for pb.Next() {
					tr.Get(uint64(s.Intn(n)))
				}
			})
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 8192, Shards: 16})
			tr, _ := Create(pool, m)
			var ctr uint64
			var mu sync.Mutex
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				ctr++
				base := ctr * 1_000_000_000
				mu.Unlock()
				i := uint64(0)
				for pb.Next() {
					tr.Insert(base+i, i)
					i++
				}
			})
		})
	}
}

// A miss is an ordinary outcome (every insert above this package probes
// first): Get and Delete return the sentinel itself, unformatted.
func TestMissIsTheBareSentinel(t *testing.T) {
	for _, m := range modes() {
		tr := newTree(t, m)
		tr.Insert(5, 1)
		var getErr, delErr error
		n := testing.AllocsPerRun(100, func() {
			_, getErr = tr.Get(6)
			delErr = tr.Delete(6)
		})
		if invariant.Enabled {
			n = 0 // the hydradebug assertions allocate
		}
		if getErr != ErrNotFound || delErr != ErrNotFound || n != 0 {
			t.Fatalf("%v: Get = %v, Delete = %v with %v allocations; want ErrNotFound itself and none", m, getErr, delErr, n)
		}
	}
}
