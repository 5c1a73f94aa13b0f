package btree

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/page"
	"hydra/internal/rng"
)

// leftmostLeaf walks child0 pointers from the root and returns the
// first leaf's id and the tree's height in pages.
func leftmostLeaf(t testing.TB, tr *Tree) (page.ID, int) {
	t.Helper()
	id := tr.RootID()
	for height := 1; ; height++ {
		f, err := tr.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f.Page}
		leaf := n.isLeaf()
		if !leaf {
			id = n.child0()
		}
		tr.pool.Unpin(f, false)
		if leaf {
			return id, height
		}
	}
}

// leafChain walks the leaf level left to right and returns every leaf's
// id and keys.
func leafChain(t testing.TB, tr *Tree) (ids []page.ID, keys [][]uint64) {
	t.Helper()
	id, _ := leftmostLeaf(t, tr)
	for id != page.InvalidID {
		f, err := tr.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f.Page}
		ks := make([]uint64, n.count())
		for i := range ks {
			ks[i] = n.leafKey(i)
		}
		ids, keys = append(ids, id), append(keys, ks)
		id = n.p.Next()
		tr.pool.Unpin(f, false)
	}
	return ids, keys
}

// reachable returns the keys a descent from the root can reach, in
// order: every leaf under every child pointer.
func reachable(t testing.TB, tr *Tree, id page.ID) []uint64 {
	t.Helper()
	f, err := tr.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.pool.Unpin(f, false)
	n := node{f.Page}
	var keys []uint64
	if n.isLeaf() {
		for i := 0; i < n.count(); i++ {
			keys = append(keys, n.leafKey(i))
		}
		return keys
	}
	keys = reachable(t, tr, n.child0())
	for i := 0; i < n.count(); i++ {
		keys = append(keys, reachable(t, tr, n.innerChild(i))...)
	}
	return keys
}

// checkAgainst is the structural check after every phase: the tree's
// own invariants; the leaf chain, and the leaves a descent from the
// root reaches, sorted and holding exactly the oracle's keys (the door
// serves the chain's last leaf whether or not a parent points to it);
// the published door naming the chain's last leaf and
// the published bound no lower than the largest key; every key found
// by Get with the oracle's value; and the door admitting exactly the
// keys at or beyond the last leaf's first key.
func checkAgainst(t *testing.T, tr *Tree, oracle map[uint64]uint64) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ids, leaves := leafChain(t, tr)
	var chain []uint64
	for _, ks := range leaves {
		chain = append(chain, ks...)
	}
	want := make([]uint64, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(chain) != len(want) {
		t.Fatalf("leaf chain holds %d keys, oracle %d", len(chain), len(want))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("leaf chain key %d is %d, oracle %d", i, chain[i], want[i])
		}
	}
	if below := reachable(t, tr, tr.RootID()); !slices.Equal(below, want) {
		t.Fatalf("a descent from the root reaches %d keys, oracle %d", len(below), len(want))
	}
	last := ids[len(ids)-1]
	if got := page.ID(tr.rightID.Load()); got != last {
		t.Fatalf("door names page %d, the chain's last leaf is %d", got, last)
	}
	if n := len(want); n > 0 && tr.rightMax.Load() < want[n-1] {
		t.Fatalf("bound %d is below the largest key %d", tr.rightMax.Load(), want[n-1])
	}
	for k, v := range oracle {
		if got, err := tr.Get(k); err != nil || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, got, err, v)
		}
	}
	lastKeys := leaves[len(leaves)-1]
	for _, k := range want {
		f := tr.door(k, latch.Shared, false, nil)
		admit := len(lastKeys) > 0 && k >= lastKeys[0]
		if (f != nil) != admit {
			t.Fatalf("door(%d) admitted = %v, want %v (last leaf starts at %v)", k, f != nil, admit, lastKeys)
		}
		if f == nil {
			continue
		}
		if f.ID() != last {
			t.Fatalf("door(%d) led to page %d, not the last leaf %d", k, f.ID(), last)
		}
		n := node{f.Page}
		pos, ok := n.leafSearch(k)
		if !ok || n.leafVal(pos) != oracle[k] {
			t.Fatalf("key %d not found through the door", k)
		}
		tr.release(f, latch.Shared, false)
	}
}

// TestRightmostDoorModel drives the door, the ascending split and the
// lazily found door against a map, in both modes, checking the whole
// structure after every phase.
func TestRightmostDoorModel(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			oracle := map[uint64]uint64{}
			put := func(k, v uint64) {
				t.Helper()
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
			del := func(k uint64) {
				t.Helper()
				_, had := oracle[k]
				if err := tr.Delete(k); had != (err == nil) || (!had && !errors.Is(err, ErrNotFound)) {
					t.Fatalf("Delete(%d) of a key present=%v: %v", k, had, err)
				}
				delete(oracle, k)
			}
			absent := func(k uint64) {
				t.Helper()
				if _, err := tr.Get(k); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%d) of an absent key: %v", k, err)
				}
			}
			lastLeaf := func() []uint64 {
				_, leaves := leafChain(t, tr)
				return leaves[len(leaves)-1]
			}
			src := rng.New(28)
			const stride = 10 // keys are multiples of it, so absent keys exist everywhere

			// Ascending inserts, interleaved with random ones below them.
			next := uint64(stride)
			for i := 0; i < 4*LeafCap; i++ {
				put(next, next+1)
				next += stride
				if i%3 == 0 {
					k := uint64(src.Intn(int(next/stride))) * stride
					put(k, src.Uint64())
				}
			}
			checkAgainst(t, tr, oracle)
			st := tr.StatsSnapshot()
			if st.AscendingSplits == 0 || st.RightmostHits == 0 || st.LeafSplits < st.AscendingSplits {
				t.Fatalf("after an ascending load: %+v", st)
			}

			// Present and absent keys on both sides of the separator.
			sep := lastLeaf()[0]
			for _, k := range []uint64{sep - stride, sep, sep + stride, next - stride} {
				if _, ok := oracle[k]; !ok {
					t.Fatalf("key %d should be present", k)
				}
			}
			for _, k := range []uint64{1, sep - 1, sep + 1, next - stride + 1, next, next + 12345, ^uint64(0)} {
				absent(k)
			}
			checkAgainst(t, tr, oracle)

			// The last leaf loses its first key: keys between the
			// separator and the new first key belong to it but the door
			// must refuse them, and a descent must still place them.
			del(sep)
			absent(sep)
			put(sep+1, 7)
			checkAgainst(t, tr, oracle)

			// Overwriting the existing last key goes through the door.
			hits := tr.StatsSnapshot().RightmostHits
			put(next-stride, 99)
			if got := tr.StatsSnapshot().RightmostHits; got != hits+1 {
				t.Fatalf("overwrite of the last key: rightmost hits %d -> %d", hits, got)
			}
			checkAgainst(t, tr, oracle)

			// The last leaf loses all its keys: the door refuses everything
			// and descents carry on, refilling it.
			for _, k := range lastLeaf() {
				del(k)
			}
			if len(lastLeaf()) != 0 {
				t.Fatal("last leaf not empty")
			}
			checkAgainst(t, tr, oracle)
			hits, walks := tr.StatsSnapshot().RightmostHits, tr.StatsSnapshot().Descents
			absent(next - stride) // just deleted: in the empty leaf's range, under the bound
			put(next, 1)
			if st := tr.StatsSnapshot(); st.RightmostHits != hits || st.Descents != walks+2 {
				t.Fatalf("an empty last leaf served through the door: %+v", st)
			}
			next += stride
			for i := 0; i < 2*LeafCap; i++ {
				put(next, next)
				next += stride
			}
			checkAgainst(t, tr, oracle)

			// Random inserts and deletes all over, the last leaf included.
			for i := 0; i < 3000; i++ {
				k := uint64(src.Intn(int(next/stride)+50)) * stride
				if src.Intn(4) == 0 {
					del(k)
				} else {
					put(k, src.Uint64())
				}
			}
			checkAgainst(t, tr, oracle)

			// A tree opened on the existing root knows no door; the first
			// walk to the last leaf finds it, and appends then skip the walk.
			re := Open(tr.pool, tr.RootID(), m)
			if re.door(^uint64(0), latch.Shared, false, nil) != nil {
				t.Fatal("a freshly opened tree has a door")
			}
			top := next + 1000*stride
			for i := 0; i < LeafCap+10; i++ {
				if err := re.Insert(top, top); err != nil {
					t.Fatal(err)
				}
				oracle[top] = top
				top += stride
			}
			if st := re.StatsSnapshot(); st.Descents > 3 || st.RightmostHits < LeafCap {
				t.Fatalf("appends to a reopened tree: %+v", st)
			}
			checkAgainst(t, re, oracle)
		})
	}
}

// TestBulkLoadThenAppend: BulkLoad publishes its last leaf, so the
// appends that follow a load (or a restart) never walk, except to split.
func TestBulkLoadThenAppend(t *testing.T) {
	for _, m := range modes() {
		for _, n := range []int{1, bulkLeafFill, 3*bulkLeafFill + 17} {
			pairs := make([]KV, n)
			oracle := map[uint64]uint64{}
			for i := range pairs {
				pairs[i] = KV{uint64(i+1) * 2, uint64(i)}
				oracle[pairs[i].Key] = pairs[i].Value
			}
			tr, err := BulkLoad(bulkPool(), m, pairs)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, tr, oracle)
			before := tr.StatsSnapshot() // the check itself walks and uses the door
			k := pairs[n-1].Key
			for i := 0; i < 2*LeafCap; i++ {
				k += 2
				if err := tr.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				oracle[k] = k
			}
			st := tr.StatsSnapshot()
			walks, hits := st.Descents-before.Descents, st.RightmostHits-before.RightmostHits
			// One walk per split; an insert that found the root a full leaf
			// walks, splits it, and then enters through the door after all.
			if st.LeafSplits == 0 || walks != st.LeafSplits || st.AscendingSplits != st.LeafSplits || hits+walks < 2*LeafCap || hits > 2*LeafCap {
				t.Fatalf("%v, %d pairs then appends: %+v after %+v", m, n, st, before)
			}
			checkAgainst(t, tr, oracle)
		}
	}
}

// TestAscendingLoadPacksLeaves: an ascending load leaves every leaf but
// the last as full as BulkLoad would, not half empty, and walks only to
// split.
func TestAscendingLoadPacksLeaves(t *testing.T) {
	const n = 86000
	for _, m := range modes() {
		pool := buffer.NewPool(buffer.NewMemStore(), buffer.Options{Frames: 512, Shards: 8})
		tr, err := Create(pool, m)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < n; k++ {
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		ids, _ := leafChain(t, tr)
		if max := (n+bulkLeafFill-1)/bulkLeafFill + 1; len(ids) > max {
			t.Fatalf("%v: %d ascending keys occupy %d leaves, want <= %d", m, n, len(ids), max)
		}
		st := tr.StatsSnapshot()
		if st.AscendingSplits != uint64(len(ids)-1) || st.LeafSplits != st.AscendingSplits || st.Descents > st.LeafSplits+2 {
			t.Fatalf("%v: %d leaves after %+v", m, len(ids), st)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertDirtiesOnlyWhatItModifies: an insert into a leaf with room
// modifies that leaf and nothing else, whichever way it got there, so
// one index page is dirty afterwards — not the ancestors a crabbing
// descent held latched on the way down.
func TestInsertDirtiesOnlyWhatItModifies(t *testing.T) {
	for _, m := range modes() {
		tr := newTree(t, m)
		for k := uint64(0); k < 4*LeafCap; k++ {
			tr.Insert(k*2, k)
		}
		for _, k := range []uint64{LeafCap + 1, 8*LeafCap + 1} { // by descent, by the door
			if err := tr.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
			if dpt := tr.pool.DirtyPageTable(); len(dpt) != 1 {
				t.Fatalf("%v: Insert(%d) into a leaf with room left %d pages dirty: %v", m, k, len(dpt), dpt)
			}
		}
	}
}

// TestAppendUnderConcurrency is the race stress: one appender, random
// writers and readers share a tree that starts as one empty leaf, so
// the root splits underneath them and the door moves with every split
// of the last leaf. Values are a function of the key; an acknowledged
// append must be visible at once.
func TestAppendUnderConcurrency(t *testing.T) {
	const (
		workers  = 4
		appends  = 12 * LeafCap
		perWrite = 3000
		low      = 1 << 20 // random writers stay below, the appender above
	)
	val := func(k uint64) uint64 { return k*31 + 7 }
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			tr := newTree(t, m)
			var appended atomic.Uint64 // appends acknowledged so far
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < appends; i++ {
					if err := tr.Insert(low+i, val(low+i)); err != nil {
						t.Errorf("append: %v", err)
						return
					}
					appended.Store(i + 1)
				}
			}()
			written := make([]map[uint64]bool, workers)
			for w := 0; w < workers; w++ {
				written[w] = map[uint64]bool{}
				wg.Add(2)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(100 + w))
					for i := 0; i < perWrite; i++ {
						k := uint64(src.Intn(low/workers))*workers + uint64(w)
						if i%5 == 4 {
							if err := tr.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
								t.Errorf("delete: %v", err)
								return
							}
							delete(written[w], k)
							continue
						}
						if err := tr.Insert(k, val(k)); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						written[w][k] = true
					}
				}(w)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(200 + w))
					for i := 0; i < perWrite; i++ {
						k := uint64(src.Intn(low))
						if n := appended.Load(); i%2 == 0 && n > 0 {
							k = low + uint64(src.Intn(int(n)))
						}
						v, err := tr.Get(k)
						switch {
						case err == nil && v != val(k):
							t.Errorf("Get(%d) = %d, want %d", k, v, val(k))
							return
						case err != nil && (k >= low || !errors.Is(err, ErrNotFound)):
							t.Errorf("Get(%d): %v", k, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			oracle := map[uint64]uint64{}
			for i := uint64(0); i < appends; i++ {
				oracle[low+i] = val(low + i)
			}
			for _, ws := range written {
				for k := range ws {
					oracle[k] = val(k)
				}
			}
			checkAgainst(t, tr, oracle)
		})
	}
}

// allocFails is a page store whose Allocate fails once its budget of
// allocations is spent.
type allocFails struct {
	buffer.PageStore
	budget int // allocations left; < 0: no limit
}

var errNoPage = errors.New("no page for you")

func (s *allocFails) Allocate() (page.ID, error) {
	if s.budget == 0 {
		return 0, errNoPage
	}
	if s.budget > 0 {
		s.budget--
	}
	return s.PageStore.Allocate()
}

// TestFailedSplitAllocationLosesNothing: an insert whose split cannot
// get a page fails and leaves the tree as it was — every earlier key
// still reached from the root, not only through the chain and the door
// — whether the root splits or a split propagates into a full parent.
// Each split is given one page less than it needs.
func TestFailedSplitAllocationLosesNothing(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			oracle := map[uint64]uint64{}
			failOnce := func(tr *Tree, store *allocFails, k uint64, allowed int) {
				t.Helper()
				store.budget = allowed
				if err := tr.Insert(k, k); !errors.Is(err, errNoPage) {
					t.Fatalf("Insert(%d) with %d page(s) to split on: %v", k, allowed, err)
				}
				store.budget = -1
				checkAgainst(t, tr, oracle)
				if err := tr.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				if v, err := tr.Get(k); err != nil || v != k {
					t.Fatalf("Get(%d) after the retried insert: %d, %v", k, v, err)
				}
				oracle[k] = k
			}

			// The root is a full leaf: its split needs a sibling and a new
			// root.
			store := &allocFails{PageStore: buffer.NewMemStore(), budget: -1}
			tr, err := Create(buffer.NewPool(store, buffer.Options{Frames: 512, Shards: 8}), m)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < LeafCap; k++ {
				if err := tr.Insert(k*2, k*2); err != nil {
					t.Fatal(err)
				}
				oracle[k*2] = k * 2
			}
			failOnce(tr, store, 1, 1)
			if invariant.Enabled {
				return // 222 000 Gets under the hydradebug assertions take a minute
			}

			// Three levels, the first interior node full: a leaf split
			// under it needs a leaf and an interior node.
			clear(oracle)
			store = &allocFails{PageStore: buffer.NewMemStore(), budget: -1}
			pairs := make([]KV, (InnerCap*9/10+2)*bulkLeafFill)
			for i := range pairs {
				pairs[i] = KV{uint64(i) * 2, uint64(i) * 2}
				oracle[pairs[i].Key] = pairs[i].Key
			}
			tr, err = BulkLoad(buffer.NewPool(store, buffer.Options{Frames: 1024, Shards: 8}), m, pairs)
			if err != nil {
				t.Fatal(err)
			}
			root, err := tr.pool.Fetch(tr.RootID())
			if err != nil {
				t.Fatal(err)
			}
			inner := node{root.Page}.child0()
			tr.pool.Unpin(root, false)
			innerFull := func() bool {
				f, err := tr.pool.Fetch(inner)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.pool.Unpin(f, false)
				return node{f.Page}.isLeaf() || full(node{f.Page})
			}
			k := uint64(1)
			for ; !innerFull(); k += 2 {
				if err := tr.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				oracle[k] = k
			}
			for ; ; k += 2 { // up to the first insert that must split
				store.budget = 0
				err := tr.Insert(k, k)
				store.budget = -1
				if errors.Is(err, errNoPage) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				oracle[k] = k
			}
			failOnce(tr, store, k, 1)
		})
	}
}
