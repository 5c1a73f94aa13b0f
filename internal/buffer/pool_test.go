package buffer

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"hydra/internal/latch"
	"hydra/internal/page"
)

func newMemPool(t *testing.T, frames, shards int) (*Pool, *MemStore) {
	t.Helper()
	st := NewMemStore()
	return NewPool(st, Options{Frames: frames, Shards: shards}), st
}

func TestNewPageFetchRoundTrip(t *testing.T) {
	p, _ := newMemPool(t, 8, 2)
	f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Latch.Acquire(latch.Exclusive)
	slot, err := f.Page.Insert([]byte("hello"))
	f.Latch.Release(latch.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)

	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	g.Latch.Acquire(latch.Shared)
	rec, err := g.Page.Read(slot)
	g.Latch.Release(latch.Shared)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("read back %q, %v", rec, err)
	}
	p.Unpin(g, false)
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, st := newMemPool(t, 4, 1)
	// Create 4 dirty pages filling the pool.
	ids := make([]page.ID, 8)
	for i := 0; i < 4; i++ {
		f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		f.Latch.Acquire(latch.Exclusive)
		f.Page.Insert([]byte(fmt.Sprintf("page-%d", i)))
		f.Latch.Release(latch.Exclusive)
		p.Unpin(f, true)
	}
	// Four more pages force evictions of the first four.
	for i := 4; i < 8; i++ {
		f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	if st := p.StatsSnapshot(); st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected evictions and writebacks, got %+v", st)
	}
	// The evicted pages must be readable from the store directly.
	var pg page.Page
	if err := st.ReadPage(ids[0], &pg); err != nil {
		t.Fatal(err)
	}
	found := false
	pg.LiveRecords(func(_ int, rec []byte) bool {
		found = string(rec) == "page-0"
		return false
	})
	if !found {
		t.Fatal("evicted page content not written back")
	}
	// And fetching them again must return the stored content.
	f, err := p.Fetch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != ids[1] {
		t.Fatal("fetched wrong page")
	}
	p.Unpin(f, false)
}

func TestAllPinnedErrors(t *testing.T) {
	p, _ := newMemPool(t, 2, 1)
	a, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewPage(page.TypeHeap); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	p.Unpin(a, false)
	c, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	p.Unpin(b, false)
	p.Unpin(c, false)
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _ := newMemPool(t, 2, 1)
	a, _ := p.NewPage(page.TypeHeap)
	idA := a.ID()
	// Cycle several other pages through the remaining frame.
	for i := 0; i < 5; i++ {
		f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
	}
	// a must still be resident and hold the same page.
	if a.ID() != idA {
		t.Fatal("pinned frame was reassigned")
	}
	p.Unpin(a, false)
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	p, _ := newMemPool(t, 2, 1)
	f, _ := p.NewPage(page.TypeHeap)
	p.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	p.Unpin(f, false)
}

func TestFetchMissingPageFails(t *testing.T) {
	p, _ := newMemPool(t, 2, 1)
	if _, err := p.Fetch(42); err == nil {
		t.Fatal("fetch of unallocated page succeeded")
	}
}

func TestReadFaultInjection(t *testing.T) {
	p, st := newMemPool(t, 4, 1)
	f, _ := p.NewPage(page.TypeHeap)
	id := f.ID()
	p.Unpin(f, true)
	// Evict it.
	for i := 0; i < 4; i++ {
		g, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(g, false)
	}
	bang := errors.New("io error")
	st.FailReads(bang)
	if _, err := p.Fetch(id); !errors.Is(err, bang) {
		t.Fatalf("err = %v, want injected io error", err)
	}
	st.FailReads(nil)
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("after healing: %v", err)
	}
	p.Unpin(g, false)
}

// flushLog is a Log whose WaitFlushed is the function itself.
type flushLog func(pageLSN uint64) error

func (f flushLog) WaitFlushed(pageLSN uint64) error { return f(pageLSN) }
func (flushLog) Frontier() uint64                   { return 1 }

func TestWALRuleHookInvoked(t *testing.T) {
	st := NewMemStore()
	var flushedUpTo []uint64
	p := NewPool(st, Options{Frames: 1, Shards: 1, Log: flushLog(func(lsn uint64) error {
		flushedUpTo = append(flushedUpTo, lsn)
		return nil
	})})
	f, _ := p.NewPage(page.TypeHeap)
	f.Latch.Acquire(latch.Exclusive)
	f.Page.SetLSN(777)
	f.Latch.Release(latch.Exclusive)
	p.Unpin(f, true)
	// Force eviction via another page.
	g, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(g, false)
	found := false
	for _, lsn := range flushedUpTo {
		if lsn == 777 {
			found = true
		}
	}
	if !found {
		t.Fatalf("WAL rule hook not invoked with pageLSN 777: %v", flushedUpTo)
	}
}

func TestWALRuleFailureBlocksEviction(t *testing.T) {
	st := NewMemStore()
	bang := errors.New("wal stuck")
	p := NewPool(st, Options{Frames: 1, Shards: 1, Log: flushLog(func(uint64) error { return bang })})
	f, _ := p.NewPage(page.TypeHeap)
	p.Unpin(f, true)
	if _, err := p.NewPage(page.TypeHeap); !errors.Is(err, bang) {
		t.Fatalf("eviction proceeded despite WAL failure: %v", err)
	}
}

func TestFlushAllAndDirtyPageTable(t *testing.T) {
	p, st := newMemPool(t, 8, 4)
	var ids []page.ID
	for i := 0; i < 5; i++ {
		f, _ := p.NewPage(page.TypeHeap)
		f.Latch.Acquire(latch.Exclusive)
		f.Page.Insert([]byte("dirty"))
		f.Page.SetLSN(uint64(100 + i))
		f.Latch.Release(latch.Exclusive)
		ids = append(ids, f.ID())
		p.Unpin(f, true)
	}
	dpt := p.DirtyPageTable()
	if len(dpt) != 5 {
		t.Fatalf("DPT has %d entries, want 5", len(dpt))
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dpt := p.DirtyPageTable(); len(dpt) != 0 {
		t.Fatalf("DPT non-empty after FlushAll: %v", dpt)
	}
	// All images durable.
	for _, id := range ids {
		var pg page.Page
		if err := st.ReadPage(id, &pg); err != nil {
			t.Fatal(err)
		}
		if pg.LiveCount() != 1 {
			t.Fatalf("page %d lost its record", id)
		}
	}
}

// seedPages makes n heap pages through p, each holding its index as
// its one record, and returns their ids.
func seedPages(t *testing.T, p *Pool, n int) []page.ID {
	t.Helper()
	var ids []page.ID
	for i := 0; i < n; i++ {
		f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.Acquire(latch.Exclusive)
		f.Page.Insert([]byte{byte(i)})
		f.Latch.Release(latch.Exclusive)
		ids = append(ids, f.ID())
		p.Unpin(f, true)
	}
	return ids
}

// stressWorkers is how many goroutines TestConcurrentFetchStress runs,
// each holding at most one pin at a time.
const stressWorkers = 8

// Workers fetch 128 pages through a pool of fewer frames, so fetches
// evict. Every shard has more frames than there are workers: a shard
// whose frames are all pinned rightly answers ErrNoFrames
// (TestFetchIntoPinnedShardErrors), and with fewer frames a shard than
// workers that is a matter of schedule.
func TestConcurrentFetchStress(t *testing.T) {
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := NewMemStore()
			p := NewPool(st, Options{Frames: shards * (stressWorkers + 1), Shards: shards})
			ids := seedPages(t, p, 128)
			var wg sync.WaitGroup
			for w := 0; w < stressWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						idx := (w*131 + i*17) % len(ids)
						f, err := p.Fetch(ids[idx])
						if err != nil {
							t.Errorf("fetch: %v", err)
							return
						}
						f.Latch.Acquire(latch.Shared)
						var got byte
						f.Page.LiveRecords(func(_ int, rec []byte) bool {
							got = rec[0]
							return false
						})
						f.Latch.Release(latch.Shared)
						if got != byte(idx) {
							t.Errorf("page %d returned content %d", idx, got)
							p.Unpin(f, false)
							return
						}
						p.Unpin(f, false)
					}
				}(w)
			}
			wg.Wait()
			st2 := p.StatsSnapshot()
			if st2.Hits+st2.Misses == 0 {
				t.Fatal("no fetch traffic recorded")
			}
			if st2.Evictions == 0 {
				t.Fatal("no fetch evicted: the pool holds every page")
			}
		})
	}
}

// A fetch into a shard whose every frame is pinned finds no victim and
// fails with ErrNoFrames; a fetch into another shard still succeeds.
func TestFetchIntoPinnedShardErrors(t *testing.T) {
	const shards, perShard = 8, 4
	p := NewPool(NewMemStore(), Options{Frames: shards * perShard, Shards: shards})
	ids := seedPages(t, p, 128)
	full := p.shardFor(ids[0])
	var in []page.ID
	var other page.ID
	for _, id := range ids {
		if p.shardFor(id) == full {
			in = append(in, id)
		} else {
			other = id
		}
	}
	if len(in) <= perShard {
		t.Fatalf("only %d of 128 pages map to the shard, want more than %d", len(in), perShard)
	}
	var pinned []*Frame
	for _, id := range in[:perShard] {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if _, err := p.Fetch(in[perShard]); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("fetch into a shard with every frame pinned: err = %v, want ErrNoFrames", err)
	}
	f, err := p.Fetch(other)
	if err != nil {
		t.Fatalf("fetch into another shard: %v", err)
	}
	p.Unpin(f, false)
	p.Unpin(pinned[0], false)
	if f, err = p.Fetch(in[perShard]); err != nil {
		t.Fatalf("fetch after an unpin: %v", err)
	}
	p.Unpin(f, false)
	for _, f := range pinned[1:] {
		p.Unpin(f, false)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(st, Options{Frames: 4, Shards: 2})
	f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Latch.Acquire(latch.Exclusive)
	f.Page.Insert([]byte("durable"))
	f.Latch.Release(latch.Exclusive)
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	n, err := st2.NumPages()
	if err != nil || n != 1 {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	var pg page.Page
	if err := st2.ReadPage(id, &pg); err != nil {
		t.Fatal(err)
	}
	ok := false
	pg.LiveRecords(func(_ int, rec []byte) bool {
		ok = string(rec) == "durable"
		return false
	})
	if !ok {
		t.Fatal("file store lost the record")
	}
}

func TestFileStoreChecksumDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(id, page.TypeHeap)
	pg.Insert([]byte("x"))
	if err := st.WritePage(pg); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte on disk.
	st.f.WriteAt([]byte{0xFF}, int64(id)*page.Size+1000)
	var back page.Page
	if err := st.ReadPage(id, &back); !errors.Is(err, ErrBadPage) {
		t.Fatalf("err = %v, want ErrBadPage", err)
	}
}

func BenchmarkFetchHit(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := NewMemStore()
			p := NewPool(st, Options{Frames: 64, Shards: shards})
			var ids []page.ID
			for i := 0; i < 64; i++ {
				f, _ := p.NewPage(page.TypeHeap)
				ids = append(ids, f.ID())
				p.Unpin(f, false)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					f, err := p.Fetch(ids[i%len(ids)])
					if err != nil {
						b.Fatal(err)
					}
					p.Unpin(f, false)
					i++
				}
			})
		})
	}
}

// NewPool allocates the pages and the frames as one slice each: at most
// one allocation per frame (its latch) beyond a constant.
func TestNewPoolAllocatesOncePerFrame(t *testing.T) {
	const frames = 4096
	st := NewMemStore()
	for _, kind := range []latch.Kind{latch.Blocking, latch.Spinning} {
		allocs := testing.AllocsPerRun(3, func() {
			NewPool(st, Options{Frames: frames, Shards: 16, LatchKind: kind})
		})
		if allocs > frames+64 {
			t.Errorf("latch kind %v: NewPool(%d) made %.0f allocations, want at most %d", kind, frames, allocs, frames+64)
		}
	}
}
