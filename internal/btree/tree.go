package btree

import (
	"errors"
	"fmt"
	"sync"

	"hydra/internal/buffer"
	"hydra/internal/latch"
	"hydra/internal/obs"
	"hydra/internal/page"
)

// Mode selects the tree's concurrency discipline.
type Mode int

const (
	// Coarse serializes writers behind one tree lock; readers share
	// it. The conventional low-overhead design: fastest at one
	// thread, collapses under write concurrency.
	Coarse Mode = iota
	// Crabbing uses latch coupling: a descent holds at most the
	// latches on the unsafe suffix of its path, so operations on
	// different subtrees proceed in parallel.
	Crabbing
)

func (m Mode) String() string {
	if m == Coarse {
		return "coarse"
	}
	return "crabbing"
}

// ErrNotFound is returned by Get and Delete for absent keys, bare: a
// miss is an ordinary outcome (every insert probes first), so it is
// not formatted; callers that report it add the table and key.
var ErrNotFound = errors.New("btree: key not found")

// Tree is a B+-tree over a buffer pool.
type Tree struct {
	pool *buffer.Pool
	mode Mode

	// coarse is the tree-wide lock used in Coarse mode.
	//hydra:vet:coarse -- Coarse mode holds the tree lock across page IO by definition; it is the paper's conventional baseline
	coarse sync.RWMutex
	// rootMu guards the root pointer; in Crabbing mode it is held
	// shared for the duration of each operation so the exclusive
	// fallback (root split) can exclude all traffic.
	//hydra:vet:coarse -- held for a whole tree operation (including page fetches) so root splits can exclude traffic
	rootMu sync.RWMutex
	root   page.ID
}

// Create allocates an empty tree (a single empty leaf).
func Create(pool *buffer.Pool, mode Mode) (*Tree, error) {
	f, err := pool.NewPage(page.TypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	root := f.ID()
	pool.Unpin(f, true)
	return &Tree{pool: pool, mode: mode, root: root}, nil
}

// Open attaches to an existing tree rooted at root.
func Open(pool *buffer.Pool, root page.ID, mode Mode) *Tree {
	return &Tree{pool: pool, mode: mode, root: root}
}

// RootID returns the current root page id (persist it in the catalog).
func (t *Tree) RootID() page.ID {
	if t.mode == Coarse {
		t.coarse.RLock()
		defer t.coarse.RUnlock()
		return t.root
	}
	t.rootMu.RLock()
	defer t.rootMu.RUnlock()
	return t.root
}

// lockCoarseR takes the tree-wide lock shared, attributing contended
// acquisition to the clock's latch-wait phase: in Coarse mode this
// lock IS the conventional design's serialization point, so its wait
// must show up in the per-transaction breakdown.
//
//hydra:vet:nonpropagating -- returns holding the tree lock for the caller's operation
func lockCoarseR(mu *sync.RWMutex, c *obs.PhaseClock) {
	if c == nil || mu.TryRLock() {
		if c == nil {
			mu.RLock()
		}
		return
	}
	t0 := obs.Now()
	mu.RLock()
	c.Add(obs.PhaseLatchWait, obs.Now()-t0)
}

// lockCoarseW is lockCoarseR for exclusive acquisition.
//
//hydra:vet:nonpropagating -- returns holding the tree lock for the caller's operation
func lockCoarseW(mu *sync.RWMutex, c *obs.PhaseClock) {
	if c == nil || mu.TryLock() {
		if c == nil {
			mu.Lock()
		}
		return
	}
	t0 := obs.Now()
	mu.Lock()
	c.Add(obs.PhaseLatchWait, obs.Now()-t0)
}

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) (uint64, error) { return t.GetC(key, nil) }

// GetC is Get with a phase clock: latch and tree-lock waits feed the
// latch-wait phase, buffer misses the buffer-miss phase.
func (t *Tree) GetC(key uint64, c *obs.PhaseClock) (uint64, error) {
	if t.mode == Coarse {
		lockCoarseR(&t.coarse, c)
		defer t.coarse.RUnlock()
		return t.getUnlatched(key, c)
	}
	return t.getCrabbing(key, c)
}

func (t *Tree) getUnlatched(key uint64, c *obs.PhaseClock) (uint64, error) {
	id := t.root
	for {
		f, err := t.pool.FetchC(id, c)
		if err != nil {
			return 0, err
		}
		n := node{f.Page}
		if n.isLeaf() {
			pos, ok := n.leafSearch(key)
			var v uint64
			if ok {
				v = n.leafVal(pos)
			}
			t.pool.Unpin(f, false)
			if !ok {
				return 0, ErrNotFound
			}
			return v, nil
		}
		id, _ = n.innerSearch(key)
		t.pool.Unpin(f, false)
	}
}

func (t *Tree) getCrabbing(key uint64, c *obs.PhaseClock) (uint64, error) {
	t.rootMu.RLock()
	defer t.rootMu.RUnlock()
	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return 0, err
	}
	f.Latch.AcquireC(latch.Shared, c)
	for {
		n := node{f.Page}
		if n.isLeaf() {
			pos, ok := n.leafSearch(key)
			var v uint64
			if ok {
				v = n.leafVal(pos)
			}
			f.Latch.Release(latch.Shared)
			t.pool.Unpin(f, false)
			if !ok {
				return 0, ErrNotFound
			}
			return v, nil
		}
		childID, _ := n.innerSearch(key)
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			f.Latch.Release(latch.Shared)
			t.pool.Unpin(f, false)
			return 0, err
		}
		cf.Latch.AcquireC(latch.Shared, c)
		f.Latch.Release(latch.Shared)
		t.pool.Unpin(f, false)
		f = cf
	}
}

// Insert stores (key, value), replacing any existing value (upsert).
func (t *Tree) Insert(key, value uint64) error { return t.InsertC(key, value, nil) }

// InsertC is Insert with a phase clock (see GetC).
func (t *Tree) InsertC(key, value uint64, c *obs.PhaseClock) error {
	if t.mode == Coarse {
		lockCoarseW(&t.coarse, c)
		defer t.coarse.Unlock()
		return t.insertExclusive(key, value, c)
	}
	for {
		done, err := t.insertCrabbing(key, value, c)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Root was full: take the tree exclusively, split it, retry.
		t.rootMu.Lock()
		err = t.splitRootIfFull(c)
		t.rootMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// insertCrabbing attempts a latch-coupled insert. It reports
// done=false (without inserting) when the root is full and must be
// split by the exclusive path first.
func (t *Tree) insertCrabbing(key, value uint64, c *obs.PhaseClock) (bool, error) {
	t.rootMu.RLock()
	defer t.rootMu.RUnlock()

	// X-latched, pinned, unsafe suffix. It starts on the stack: a
	// descent re-fills it at every split-safe child, and a tree deeper
	// than the array spills to the heap.
	var onStack [8]*buffer.Frame
	path := onStack[:0]
	releaseAll := func() {
		for _, pf := range path {
			pf.Latch.Release(latch.Exclusive)
			t.pool.Unpin(pf, true) // conservatively dirty: they may have been modified
		}
		path = path[:0]
	}

	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return false, err
	}
	f.Latch.AcquireC(latch.Exclusive, c)
	if full(node{f.Page}) {
		f.Latch.Release(latch.Exclusive)
		t.pool.Unpin(f, false)
		return false, nil // exclusive path must split the root
	}
	path = append(path, f)

	for {
		n := node{f.Page}
		if n.isLeaf() {
			break
		}
		childID, _ := n.innerSearch(key)
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			releaseAll()
			return false, err
		}
		cf.Latch.AcquireC(latch.Exclusive, c)
		if !full(node{cf.Page}) {
			// Child is split-safe: ancestors can go.
			releaseAll()
		}
		path = append(path, cf)
		f = cf
	}

	// Leaf insert, with splits propagating through the retained path.
	leaf := node{f.Page}
	pos, ok := leaf.leafSearch(key)
	if ok {
		leaf.setLeafEntry(pos, key, value)
		releaseAll()
		return true, nil
	}
	if leaf.count() < LeafCap {
		leaf.leafInsertAt(pos, key, value)
		releaseAll()
		return true, nil
	}
	// Split the leaf and bubble the separator up the retained path.
	sep, newID, err := t.leafSplitInsert(leaf, key, value, c)
	if err != nil {
		releaseAll()
		return false, err
	}
	for i := len(path) - 2; i >= 0; i-- {
		parent := node{path[i].Page}
		if parent.count() < InnerCap {
			kpos := innerInsertPos(parent, sep)
			parent.innerInsertAt(kpos, sep, newID)
			releaseAll()
			return true, nil
		}
		sep, newID, err = t.innerSplitInsert(parent, sep, newID, c)
		if err != nil {
			releaseAll()
			return false, err
		}
	}
	// The retained path's top was not full by construction (the root
	// was checked and unsafe ancestors always have a safe node above
	// them on the path), so propagation cannot fall off the top.
	releaseAll()
	return false, fmt.Errorf("btree: split propagated past retained path (corrupt tree)")
}

// splitRootIfFull preemptively splits a full root under the exclusive
// tree lock.
func (t *Tree) splitRootIfFull(c *obs.PhaseClock) error {
	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return err
	}
	n := node{f.Page}
	if !full(n) {
		t.pool.Unpin(f, false)
		return nil
	}
	var sep uint64
	var newID page.ID
	if n.isLeaf() {
		sep, newID, err = t.leafSplit(n, c)
	} else {
		sep, newID, err = t.innerSplit(n, c)
	}
	if err != nil {
		t.pool.Unpin(f, false)
		return err
	}
	rf, err := t.pool.NewPageC(page.TypeBTreeInner, c)
	if err != nil {
		t.pool.Unpin(f, true)
		return err
	}
	rn := node{rf.Page}
	rn.setChild0(t.root)
	rn.innerInsertAt(0, sep, newID)
	t.root = rf.ID()
	t.pool.Unpin(rf, true)
	t.pool.Unpin(f, true)
	return nil
}

// insertExclusive is the Coarse-mode insert: top-down preemptive
// splitting under the tree-wide writer lock, no latches.
func (t *Tree) insertExclusive(key, value uint64, c *obs.PhaseClock) error {
	if err := t.splitRootIfFullLocked(c); err != nil {
		return err
	}
	id := t.root
	for {
		f, err := t.pool.FetchC(id, c)
		if err != nil {
			return err
		}
		n := node{f.Page}
		if n.isLeaf() {
			pos, ok := n.leafSearch(key)
			if ok {
				n.setLeafEntry(pos, key, value)
			} else {
				n.leafInsertAt(pos, key, value)
			}
			t.pool.Unpin(f, true)
			return nil
		}
		childID, _ := n.innerSearch(key)
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			t.pool.Unpin(f, false)
			return err
		}
		cn := node{cf.Page}
		if full(cn) {
			var sep uint64
			var newID page.ID
			if cn.isLeaf() {
				sep, newID, err = t.leafSplit(cn, c)
			} else {
				sep, newID, err = t.innerSplit(cn, c)
			}
			if err != nil {
				t.pool.Unpin(cf, false)
				t.pool.Unpin(f, false)
				return err
			}
			kpos := innerInsertPos(n, sep)
			n.innerInsertAt(kpos, sep, newID)
			t.pool.Unpin(cf, true)
			t.pool.Unpin(f, true)
			// Re-descend from the same inner node via search.
			if key >= sep {
				id = newID
			} else {
				id = childID
			}
			continue
		}
		t.pool.Unpin(f, false)
		t.pool.Unpin(cf, false) // re-fetched below; keeps pin discipline simple
		id = childID
	}
}

func (t *Tree) splitRootIfFullLocked(c *obs.PhaseClock) error {
	// Same as splitRootIfFull; Coarse mode's writer lock already
	// excludes all other traffic.
	return t.splitRootIfFull(c)
}

// Delete removes key. In the tradition of many production trees,
// underflowing nodes are not rebalanced; empty leaves are left in
// place and reclaimed on reorganization.
func (t *Tree) Delete(key uint64) error { return t.DeleteC(key, nil) }

// DeleteC is Delete with a phase clock (see GetC).
func (t *Tree) DeleteC(key uint64, c *obs.PhaseClock) error {
	if t.mode == Coarse {
		lockCoarseW(&t.coarse, c)
		defer t.coarse.Unlock()
		return t.deleteUnlatched(key, c)
	}
	return t.deleteCrabbing(key, c)
}

func (t *Tree) deleteUnlatched(key uint64, c *obs.PhaseClock) error {
	id := t.root
	for {
		f, err := t.pool.FetchC(id, c)
		if err != nil {
			return err
		}
		n := node{f.Page}
		if n.isLeaf() {
			pos, ok := n.leafSearch(key)
			if !ok {
				t.pool.Unpin(f, false)
				return ErrNotFound
			}
			n.leafDeleteAt(pos)
			t.pool.Unpin(f, true)
			return nil
		}
		id, _ = n.innerSearch(key)
		t.pool.Unpin(f, false)
	}
}

func (t *Tree) deleteCrabbing(key uint64, c *obs.PhaseClock) error {
	// Deletes never modify ancestors (no rebalancing), so plain latch
	// coupling with immediate parent release suffices.
	t.rootMu.RLock()
	defer t.rootMu.RUnlock()
	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return err
	}
	f.Latch.AcquireC(latch.Exclusive, c)
	for {
		n := node{f.Page}
		if n.isLeaf() {
			pos, ok := n.leafSearch(key)
			if ok {
				n.leafDeleteAt(pos)
			}
			f.Latch.Release(latch.Exclusive)
			t.pool.Unpin(f, ok)
			if !ok {
				return ErrNotFound
			}
			return nil
		}
		childID, _ := n.innerSearch(key)
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			f.Latch.Release(latch.Exclusive)
			t.pool.Unpin(f, false)
			return err
		}
		cf.Latch.AcquireC(latch.Exclusive, c)
		f.Latch.Release(latch.Exclusive)
		t.pool.Unpin(f, false)
		f = cf
	}
}

// Scan calls fn for every (key, value) with lo <= key <= hi in
// ascending order; fn returning false stops the scan.
func (t *Tree) Scan(lo, hi uint64, fn func(key, value uint64) bool) error {
	return t.ScanC(lo, hi, nil, fn)
}

// ScanC is Scan with a phase clock (see GetC).
func (t *Tree) ScanC(lo, hi uint64, c *obs.PhaseClock, fn func(key, value uint64) bool) error {
	if t.mode == Coarse {
		lockCoarseR(&t.coarse, c)
		defer t.coarse.RUnlock()
	} else {
		t.rootMu.RLock()
		defer t.rootMu.RUnlock()
	}
	latched := t.mode == Crabbing

	// Descend to the leaf containing lo.
	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return err
	}
	if latched {
		f.Latch.AcquireC(latch.Shared, c)
	}
	for {
		n := node{f.Page}
		if n.isLeaf() {
			break
		}
		childID, _ := n.innerSearch(lo)
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			if latched {
				f.Latch.Release(latch.Shared)
			}
			t.pool.Unpin(f, false)
			return err
		}
		if latched {
			cf.Latch.AcquireC(latch.Shared, c)
			f.Latch.Release(latch.Shared)
		}
		t.pool.Unpin(f, false)
		f = cf
	}
	// Walk leaves via sibling links.
	for {
		n := node{f.Page}
		pos, _ := n.leafSearch(lo)
		for ; pos < n.count(); pos++ {
			k := n.leafKey(pos)
			if k > hi {
				if latched {
					f.Latch.Release(latch.Shared)
				}
				t.pool.Unpin(f, false)
				return nil
			}
			if !fn(k, n.leafVal(pos)) {
				if latched {
					f.Latch.Release(latch.Shared)
				}
				t.pool.Unpin(f, false)
				return nil
			}
		}
		next := n.p.Next()
		if next == page.InvalidID {
			if latched {
				f.Latch.Release(latch.Shared)
			}
			t.pool.Unpin(f, false)
			return nil
		}
		nf, err := t.pool.FetchC(next, c)
		if err != nil {
			if latched {
				f.Latch.Release(latch.Shared)
			}
			t.pool.Unpin(f, false)
			return err
		}
		if latched {
			nf.Latch.AcquireC(latch.Shared, c)
			f.Latch.Release(latch.Shared)
		}
		t.pool.Unpin(f, false)
		f = nf
		lo = 0 // continue from the start of the next leaf
	}
}

// full reports whether a node cannot absorb one more entry.
func full(n node) bool {
	if n.isLeaf() {
		return n.count() >= LeafCap
	}
	return n.count() >= InnerCap
}

// innerInsertPos returns the key position where sep belongs.
func innerInsertPos(n node, sep uint64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.innerKey(mid) < sep {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSplit moves the upper half of n into a fresh leaf, returning
// the separator (first key of the new leaf) and its page id.
func (t *Tree) leafSplit(n node, c *obs.PhaseClock) (uint64, page.ID, error) {
	rf, err := t.pool.NewPageC(page.TypeBTreeLeaf, c)
	if err != nil {
		return 0, 0, err
	}
	r := node{rf.Page}
	mid := n.count() / 2
	moved := n.count() - mid
	copy(r.body()[:moved*entrySize], n.body()[mid*entrySize:n.count()*entrySize])
	r.setCount(moved)
	n.setCount(mid)
	r.p.SetNext(n.p.Next())
	n.p.SetNext(rf.ID())
	sep := r.leafKey(0)
	id := rf.ID()
	t.pool.Unpin(rf, true)
	return sep, id, nil
}

// leafSplitInsert splits n and then inserts (key, value) into the
// correct half, returning the separator and new page id.
func (t *Tree) leafSplitInsert(n node, key, value uint64, c *obs.PhaseClock) (uint64, page.ID, error) {
	rf, err := t.pool.NewPageC(page.TypeBTreeLeaf, c)
	if err != nil {
		return 0, 0, err
	}
	r := node{rf.Page}
	mid := n.count() / 2
	moved := n.count() - mid
	copy(r.body()[:moved*entrySize], n.body()[mid*entrySize:n.count()*entrySize])
	r.setCount(moved)
	n.setCount(mid)
	r.p.SetNext(n.p.Next())
	n.p.SetNext(rf.ID())
	sep := r.leafKey(0)
	if key >= sep {
		pos, _ := r.leafSearch(key)
		r.leafInsertAt(pos, key, value)
	} else {
		pos, _ := n.leafSearch(key)
		n.leafInsertAt(pos, key, value)
	}
	id := rf.ID()
	t.pool.Unpin(rf, true)
	return sep, id, nil
}

// innerSplit splits a full interior node, returning the key promoted
// to the parent and the new right node's id.
func (t *Tree) innerSplit(n node, c *obs.PhaseClock) (uint64, page.ID, error) {
	rf, err := t.pool.NewPageC(page.TypeBTreeInner, c)
	if err != nil {
		return 0, 0, err
	}
	r := node{rf.Page}
	mid := n.count() / 2
	sep := n.innerKey(mid)
	r.setChild0(n.innerChild(mid))
	moved := n.count() - mid - 1
	copy(r.body()[8:8+moved*entrySize], n.body()[8+(mid+1)*entrySize:8+n.count()*entrySize])
	r.setCount(moved)
	n.setCount(mid)
	id := rf.ID()
	t.pool.Unpin(rf, true)
	return sep, id, nil
}

// innerSplitInsert splits n and inserts (sep, child) into the proper
// half, returning the promoted key and new node id.
func (t *Tree) innerSplitInsert(n node, sep uint64, child page.ID, c *obs.PhaseClock) (uint64, page.ID, error) {
	promoted, newID, err := t.innerSplit(n, c)
	if err != nil {
		return 0, 0, err
	}
	var target node
	var tf *buffer.Frame
	if sep >= promoted {
		f, err := t.pool.FetchC(newID, c)
		if err != nil {
			return 0, 0, err
		}
		tf, target = f, node{f.Page}
	} else {
		target = n
	}
	kpos := innerInsertPos(target, sep)
	target.innerInsertAt(kpos, sep, child)
	if tf != nil {
		t.pool.Unpin(tf, true)
	}
	return promoted, newID, nil
}

// Count returns the number of keys (full scan).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(0, ^uint64(0), func(uint64, uint64) bool { n++; return true })
	return n, err
}

// CheckInvariants walks the whole tree verifying ordering, separator
// bounds, and sibling linkage; used by tests.
func (t *Tree) CheckInvariants() error {
	t.rootMu.RLock()
	root := t.root
	t.rootMu.RUnlock()
	_, _, err := t.check(root, 0, ^uint64(0))
	return err
}

// check verifies the subtree at id covers [lo, hi) and returns its
// first and last keys.
func (t *Tree) check(id page.ID, lo, hi uint64) (uint64, uint64, error) {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return 0, 0, err
	}
	defer t.pool.Unpin(f, false)
	n := node{f.Page}
	if n.isLeaf() {
		var prev uint64
		for i := 0; i < n.count(); i++ {
			k := n.leafKey(i)
			if i > 0 && k <= prev {
				return 0, 0, fmt.Errorf("btree: leaf %d keys out of order at %d", id, i)
			}
			if k < lo || (hi != ^uint64(0) && k >= hi) {
				return 0, 0, fmt.Errorf("btree: leaf %d key %d outside [%d, %d)", id, k, lo, hi)
			}
			prev = k
		}
		if n.count() == 0 {
			return lo, lo, nil
		}
		return n.leafKey(0), n.leafKey(n.count() - 1), nil
	}
	childLo := lo
	for i := -1; i < n.count(); i++ {
		var child page.ID
		var childHi uint64
		if i == -1 {
			child = n.child0()
		} else {
			child = n.innerChild(i)
			childLo = n.innerKey(i)
		}
		if i+1 < n.count() {
			childHi = n.innerKey(i + 1)
		} else {
			childHi = hi
		}
		if _, _, err := t.check(child, childLo, childHi); err != nil {
			return 0, 0, err
		}
	}
	return lo, hi, nil
}
