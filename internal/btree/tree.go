package btree

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/obs"
	"hydra/internal/page"
)

// Mode selects the tree's concurrency discipline.
type Mode int

// Both modes run the same operations; a mode decides only what guards
// them (lock and latch).
const (
	// Coarse: the tree lock (Tree.mu) and no page latch. Readers share
	// it, a writer holds it exclusively. The conventional low-overhead
	// design: fastest at one thread, collapses under write concurrency.
	Coarse Mode = iota
	// Crabbing: page latches and no tree lock. A descent couples the
	// latches and holds at most those on the unsafe suffix of its path,
	// so operations on different subtrees proceed in parallel; a root
	// split happens under the root's X latch.
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

	// mu is the Coarse tree lock, held for a whole operation (lock); a
	// Crabbing tree never takes it. It is taken clocked: it is the
	// conventional design's serialisation point, so its wait must show
	// in the per-transaction breakdown.
	//hydra:vet:coarse -- held for a whole tree operation, page fetches included: Coarse mode's writers serialise on it by definition
	mu   invariant.RWMutex[invariant.Tree]
	root page.ID // fixed for the tree's life: a root splits in place (splitRoot)

	// The rightmost door: the id of the chain's last leaf and the
	// separator its range starts at, so that a key at or beyond it goes
	// to that leaf without a descent (see door). The pair is a filter
	// and nothing more — it may be stale or torn; what door checks under
	// the leaf's latch is the authority. It is published by whoever
	// makes a new last leaf (a split, BulkLoad, Create) and, when it
	// names another page, by a descent that ends on the last leaf.
	rightSep atomic.Uint64
	rightID  atomic.Uint64
	// rightMax is a bound no key of the tree exceeds, so that a probe
	// beyond it — the miss that precedes every append — is answered
	// with no page at all. Unlike the pair above it is a fact: whoever
	// inserts a key above it raises it first, under the last leaf's
	// latch (only there can such a key go); nothing lowers it but a walk
	// that ends on a non-empty last leaf of a tree whose bound is still
	// unknown (Open), which sets it to that leaf's last key.
	rightMax atomic.Uint64

	descents, rightmostHits, leafSplits, ascendingSplits obs.Counter
}

// Stats counts how the tree's operations reached their leaf.
type Stats struct {
	Descents        uint64 `json:"descents"`         // root-to-leaf walks
	RightmostHits   uint64 `json:"rightmost_hits"`   // operations served through the rightmost door, without a walk
	LeafSplits      uint64 `json:"leaf_splits"`      // leaves split, of either kind
	AscendingSplits uint64 `json:"ascending_splits"` // of those, appends past the last key: the old leaf keeps a bulk-loaded leaf's fill
}

// StatsSnapshot returns a copy of the cumulative counters.
func (t *Tree) StatsSnapshot() Stats {
	return Stats{
		Descents:        t.descents.Load(),
		RightmostHits:   t.rightmostHits.Load(),
		LeafSplits:      t.leafSplits.Load(),
		AscendingSplits: t.ascendingSplits.Load(),
	}
}

// Add accumulates o into s (an engine sums its trees).
func (s *Stats) Add(o Stats) {
	s.Descents += o.Descents
	s.RightmostHits += o.RightmostHits
	s.LeafSplits += o.LeafSplits
	s.AscendingSplits += o.AscendingSplits
}

// Create allocates an empty tree (a single empty leaf).
func Create(pool *buffer.Pool, mode Mode) (*Tree, error) {
	f, err := pool.NewPage(page.TypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	t := Open(pool, f.ID(), mode)
	t.publishRightmost(f.ID(), 0)
	t.rightMax.Store(0)
	pool.Unpin(f, true)
	return t, nil
}

// Open attaches to an existing tree rooted at root. Its door names no
// page, and it knows no bound on its keys, until a descent finds the
// last leaf.
func Open(pool *buffer.Pool, root page.ID, mode Mode) *Tree {
	t := &Tree{pool: pool, mode: mode, root: root}
	t.publishRightmost(page.InvalidID, math.MaxUint64)
	t.rightMax.Store(math.MaxUint64)
	return t
}

// publishRightmost names id, whose range starts at sep, as the chain's
// last leaf. The caller holds that leaf's latch, or the latch of the
// leaf being split to make it (the root's, for a root split), or the
// tree exclusively — so successive last leaves are published in the
// order they came to be.
func (t *Tree) publishRightmost(id page.ID, sep uint64) {
	t.rightSep.Store(sep)
	t.rightID.Store(uint64(id))
}

// noteRightmost publishes the leaf a descent ended on when it is the
// chain's last and the door names another page (a tree just opened).
// lo is the lower bound of the leaf's range as the descent saw it.
func (t *Tree) noteRightmost(f *buffer.Frame, lo uint64) {
	if f.Page.Next() == page.InvalidID && page.ID(t.rightID.Load()) != f.ID() {
		t.publishRightmost(f.ID(), lo)
		if n := (node{f.Page}); n.count() > 0 && t.rightMax.Load() == math.MaxUint64 {
			t.rightMax.Store(n.leafKey(n.count() - 1))
		}
	}
}

// beyond reports that key is above every key the tree holds: absent,
// and known to be without touching a page or a lock.
func (t *Tree) beyond(key uint64) bool {
	if key <= t.rightMax.Load() {
		return false
	}
	t.rightmostHits.Inc()
	return true
}

// raise keeps rightMax a bound before key enters a leaf. The caller
// holds that leaf's latch (or the tree lock) exclusively; a key above
// the bound can only be going into the last leaf, so raisers are serial.
func (t *Tree) raise(key uint64) {
	if key > t.rightMax.Load() {
		t.rightMax.Store(key)
	}
}

// door returns the chain's last leaf, pinned and (in Crabbing mode)
// latched in mode m, when key can be served there without a descent,
// and nil when the operation must walk from the root. A key below the
// published separator pays one atomic load and no page fetch. For a
// key at or beyond it the named page is fetched and latched, and the
// page itself decides: it is still a leaf with no right sibling, so it
// is the last leaf and its range is [separator, ∞); it is non-empty and
// key >= its first key, which is >= that separator, so key is in the
// range whatever the published pair said; and, when the caller needs
// room for one more entry, it is not full, so no ancestor is touched.
// No page is freed and only the root is retyped (leaf to interior, when
// it splits), so a stale id still names a page of this tree, and these
// checks refuse it if it is no longer the last leaf. The caller has begun
// its operation (lock); only this one leaf latch is taken.
func (t *Tree) door(key uint64, m latch.Mode, room bool, c *obs.PhaseClock) *buffer.Frame {
	if key < t.rightSep.Load() {
		return nil
	}
	id := page.ID(t.rightID.Load())
	if id == page.InvalidID {
		return nil
	}
	f, err := t.pool.FetchC(id, c)
	if err != nil {
		return nil // the descent meets the same store and reports it
	}
	t.latch(f, m, c)
	n := node{f.Page}
	if n.isLeaf() && n.p.Next() == page.InvalidID && n.count() > 0 && key >= n.leafKey(0) &&
		!(room && n.count() >= LeafCap) {
		t.rightmostHits.Inc()
		return f
	}
	t.release(f, m, false)
	return nil
}

// lock begins an operation that takes its latches in mode m: a Coarse
// tree takes the tree lock in that mode. A Crabbing tree takes none and
// only checks (hydradebug) that the caller holds no lock ranked above
// the tree's, such as a scan callback's leaf latch (see ScanC).
func (t *Tree) lock(m latch.Mode, c *obs.PhaseClock) {
	switch {
	case t.mode == Crabbing:
		invariant.Check[invariant.Tree]()
	case m == latch.Exclusive:
		t.mu.LockC(c)
	default:
		t.mu.RLockC(c)
	}
}

// unlock undoes lock.
func (t *Tree) unlock(m latch.Mode) {
	if t.mode == Coarse && m == latch.Exclusive {
		t.mu.Unlock()
	} else if t.mode == Coarse {
		t.mu.RUnlock()
	}
}

// latch takes f's latch in mode m in Crabbing mode. A Coarse tree takes
// none: its tree lock covers every page.
func (t *Tree) latch(f *buffer.Frame, m latch.Mode, c *obs.PhaseClock) {
	if t.mode == Crabbing {
		f.Latch.AcquireC(m, c)
	}
}

// release undoes latch and the pin.
func (t *Tree) release(f *buffer.Frame, m latch.Mode, dirty bool) {
	if t.mode == Crabbing {
		f.Latch.Release(m)
	}
	t.pool.Unpin(f, dirty)
}

// leafFor returns the leaf whose range holds key, pinned and (in
// Crabbing mode) latched in mode m: the last leaf through the door, or
// the end of a latch-coupled walk from the root that holds one latch
// beyond the handover. The caller has begun its operation and releases
// the leaf with release.
func (t *Tree) leafFor(key uint64, m latch.Mode, c *obs.PhaseClock) (*buffer.Frame, error) {
	if f := t.door(key, m, false, c); f != nil {
		return f, nil
	}
	t.descents.Inc()
	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return nil, err
	}
	t.latch(f, m, c)
	var lo uint64
	for {
		n := node{f.Page}
		if n.isLeaf() {
			t.noteRightmost(f, lo)
			return f, nil
		}
		childID, idx := n.innerSearch(key)
		if idx >= 0 {
			lo = n.innerKey(idx)
		}
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			t.release(f, m, false)
			return nil, err
		}
		t.latch(cf, m, c)
		t.release(f, m, false)
		f = cf
	}
}

// RootID returns the root page id, the same for the tree's life.
func (t *Tree) RootID() page.ID { return t.root }

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) (uint64, error) { return t.GetC(key, nil) }

// GetC is Get with a phase clock: latch and tree-lock waits feed the
// latch-wait phase, buffer misses the buffer-miss phase.
func (t *Tree) GetC(key uint64, c *obs.PhaseClock) (uint64, error) {
	if t.beyond(key) {
		return 0, ErrNotFound
	}
	t.lock(latch.Shared, c)
	defer t.unlock(latch.Shared)
	f, err := t.leafFor(key, latch.Shared, c)
	if err != nil {
		return 0, err
	}
	n := node{f.Page}
	pos, ok := n.leafSearch(key)
	var v uint64
	if ok {
		v = n.leafVal(pos)
	}
	t.release(f, latch.Shared, false)
	if !ok {
		return 0, ErrNotFound
	}
	return v, nil
}

// Insert stores (key, value), replacing any existing value (upsert).
func (t *Tree) Insert(key, value uint64) error { return t.InsertC(key, value, nil) }

// InsertC is Insert with a phase clock (see GetC).
func (t *Tree) InsertC(key, value uint64, c *obs.PhaseClock) error {
	t.lock(latch.Exclusive, c)
	defer t.unlock(latch.Exclusive)
	return t.insert(key, value, c)
}

// insertRightmost stores (key, value) in the last leaf when the door
// admits key and the leaf has room, so that no ancestor is involved; it
// reports false, with nothing done, when the insert must descend.
func (t *Tree) insertRightmost(key, value uint64, c *obs.PhaseClock) bool {
	f := t.door(key, latch.Exclusive, true, c)
	if f == nil {
		return false
	}
	n := node{f.Page}
	t.raise(key)
	if pos, ok := n.leafSearch(key); ok {
		n.setLeafEntry(pos, key, value)
	} else {
		n.leafInsertAt(pos, key, value)
	}
	t.release(f, latch.Exclusive, true)
	return true
}

// insert stores (key, value) through the door, or else by a
// latch-coupled descent that retains the unsafe suffix of its path and
// splits it bottom-up; a full root is split in place first. The caller
// has begun its operation (lock).
func (t *Tree) insert(key, value uint64, c *obs.PhaseClock) error {
	if t.insertRightmost(key, value, c) {
		return nil
	}

	// X-latched, pinned, unsafe suffix. It starts on the stack: a
	// descent re-fills it at every split-safe child, and a tree deeper
	// than the array spills to the heap. path[dirty:] is what the insert
	// has modified so far: nothing while it descends.
	var onStack [8]*buffer.Frame
	path := onStack[:0]
	dirty := math.MaxInt
	releaseAll := func() {
		for i, pf := range path {
			t.release(pf, latch.Exclusive, i >= dirty)
		}
		path = path[:0]
	}

	f, err := t.pool.FetchC(t.root, c)
	if err != nil {
		return err
	}
	t.latch(f, latch.Exclusive, c)
	t.descents.Inc()
	if full(node{f.Page}) {
		// Split it in place and start again: the root is the same
		// page, now with room.
		err := t.splitRoot(f, key, c)
		t.release(f, latch.Exclusive, err == nil)
		if err != nil {
			return err
		}
		return t.insert(key, value, c)
	}
	path = append(path, f)

	var lo uint64
	for {
		n := node{f.Page}
		if n.isLeaf() {
			break
		}
		childID, idx := n.innerSearch(key)
		if idx >= 0 {
			lo = n.innerKey(idx)
		}
		cf, err := t.pool.FetchC(childID, c)
		if err != nil {
			releaseAll()
			return err
		}
		t.latch(cf, latch.Exclusive, c)
		if !full(node{cf.Page}) {
			// Child is split-safe: ancestors can go.
			releaseAll()
		}
		path = append(path, cf)
		f = cf
	}
	t.noteRightmost(f, lo)
	t.raise(key)

	// Leaf insert, with splits propagating through the retained path.
	leaf := node{f.Page}
	dirty = len(path) - 1
	pos, ok := leaf.leafSearch(key)
	if ok {
		leaf.setLeafEntry(pos, key, value)
		releaseAll()
		return nil
	}
	if leaf.count() < LeafCap {
		leaf.leafInsertAt(pos, key, value)
		releaseAll()
		return nil
	}

	// The leaf and every node above it on the path but the top are full
	// (the top is the root, split first if it was full, or a split-safe
	// node), so each of them splits. Their new pages are allocated before
	// anything changes: a failed allocation leaves the tree as it was.
	var freshStack [8]*buffer.Frame
	fresh := freshStack[:0]
	for i := 1; i < len(path); i++ {
		typ := page.TypeBTreeInner
		if i == len(path)-1 {
			typ = page.TypeBTreeLeaf
		}
		nf, err := t.pool.NewPageC(typ, c)
		if err != nil {
			for _, nf := range fresh {
				t.pool.Unpin(nf, false)
			}
			dirty = len(path)
			releaseAll()
			return err
		}
		fresh = append(fresh, nf)
	}
	// fresh[i-1] is path[i]'s new right sibling.
	dirty = 0
	rf := fresh[len(fresh)-1]
	sep := t.splitLeaf(leaf, key, rf)
	if key >= sep {
		r := node{rf.Page}
		pos, _ := r.leafSearch(key)
		r.leafInsertAt(pos, key, value)
	} else {
		pos, _ := leaf.leafSearch(key)
		leaf.leafInsertAt(pos, key, value)
	}
	child := t.adopt(rf, sep)
	for i := len(path) - 2; i > 0; i-- {
		sep, child = t.innerSplitInsert(node{path[i].Page}, sep, child, fresh[i-1])
	}
	top := node{path[0].Page}
	top.innerInsertAt(innerInsertPos(top, sep), sep, child)
	releaseAll()
	return nil
}

// splitRoot splits the full root f in place, under its X latch or the
// tree lock held exclusively; key is the insert that found it full. The
// root's content moves to a new left page and is split into a new right
// one, and the root becomes an interior node over the two, so its page
// id never changes. Both pages are allocated before anything changes:
// a failed allocation leaves the tree as it was (a page allocated and
// never written costs no IO). A new last leaf is published only once
// the root names it.
func (t *Tree) splitRoot(f *buffer.Frame, key uint64, c *obs.PhaseClock) error {
	n := node{f.Page}
	lf, err := t.pool.NewPageC(n.p.Type(), c)
	if err != nil {
		return err
	}
	rf, err := t.pool.NewPageC(n.p.Type(), c)
	if err != nil {
		t.pool.Unpin(lf, false)
		return err
	}
	l := node{lf.Page}
	copy(l.body(), n.body())
	l.setCount(n.count())
	var sep uint64
	if n.isLeaf() {
		sep = t.splitLeaf(l, key, rf)
	} else {
		sep = t.innerSplit(l, rf)
	}
	n.p.Format(f.ID(), page.TypeBTreeInner)
	n.setChild0(lf.ID())
	n.innerInsertAt(0, sep, rf.ID())
	t.pool.Unpin(lf, true)
	t.adopt(rf, sep)
	return nil
}

// Delete removes key. In the tradition of many production trees,
// underflowing nodes are not rebalanced: an emptied leaf stays in the
// chain, and no page of a tree is ever freed. A delete therefore never
// modifies an ancestor, and plain latch coupling serves it.
func (t *Tree) Delete(key uint64) error { return t.DeleteC(key, nil) }

// DeleteC is Delete with a phase clock (see GetC).
func (t *Tree) DeleteC(key uint64, c *obs.PhaseClock) error {
	if t.beyond(key) {
		return ErrNotFound
	}
	t.lock(latch.Exclusive, c)
	defer t.unlock(latch.Exclusive)
	f, err := t.leafFor(key, latch.Exclusive, c)
	if err != nil {
		return err
	}
	n := node{f.Page}
	pos, ok := n.leafSearch(key)
	if ok {
		n.leafDeleteAt(pos)
	}
	t.release(f, latch.Exclusive, ok)
	if !ok {
		return ErrNotFound
	}
	return nil
}

// Scan calls fn for every (key, value) with lo <= key <= hi in
// ascending order; fn returning false stops the scan. fn runs under a
// leaf latch (Crabbing) or the tree lock (Coarse), so it must not call
// the tree: under hydradebug a Crabbing operation entered from it
// panics in lock.
func (t *Tree) Scan(lo, hi uint64, fn func(key, value uint64) bool) error {
	return t.ScanC(lo, hi, nil, fn)
}

// ScanC is Scan with a phase clock (see GetC).
func (t *Tree) ScanC(lo, hi uint64, c *obs.PhaseClock, fn func(key, value uint64) bool) error {
	t.lock(latch.Shared, c)
	defer t.unlock(latch.Shared)
	f, err := t.leafFor(lo, latch.Shared, c)
	if err != nil {
		return err
	}
	// Walk leaves via sibling links.
	for {
		n := node{f.Page}
		pos, _ := n.leafSearch(lo)
		for ; pos < n.count(); pos++ {
			k := n.leafKey(pos)
			if k > hi || !fn(k, n.leafVal(pos)) {
				t.release(f, latch.Shared, false)
				return nil
			}
		}
		next := n.p.Next()
		if next == page.InvalidID {
			t.release(f, latch.Shared, false)
			return nil
		}
		nf, err := t.pool.FetchC(next, c)
		if err != nil {
			t.release(f, latch.Shared, false)
			return err
		}
		t.latch(nf, latch.Shared, c)
		t.release(f, latch.Shared, false)
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

// splitLeaf moves the upper part of the full leaf n into rf, a new leaf
// linked in after it, and returns rf's separator (its first key); rf is
// not yet reachable from any parent. The upper part is the upper half —
// unless key, the insert that found n full, lies past the last key of
// the chain's last leaf: an append. Halving there leaves every leaf of
// an ascending load half empty for good, so n keeps what BulkLoad packs
// into a leaf and the new last leaf starts with the rest.
func (t *Tree) splitLeaf(n node, key uint64, rf *buffer.Frame) uint64 {
	t.leafSplits.Inc()
	r := node{rf.Page}
	mid := n.count() / 2
	if n.p.Next() == page.InvalidID && key > n.leafKey(n.count()-1) {
		mid = bulkLeafFill
		t.ascendingSplits.Inc()
	}
	moved := n.count() - mid
	copy(r.body()[:moved*entrySize], n.body()[mid*entrySize:n.count()*entrySize])
	r.setCount(moved)
	n.setCount(mid)
	r.p.SetNext(n.p.Next())
	n.p.SetNext(rf.ID())
	return r.leafKey(0)
}

// adopt ends a split once the splitter has written what it will to the
// new page rf, whose range starts at sep: a new last leaf becomes the
// door — only now, so that nobody latches it while it is still being
// filled unlatched — and the pin goes.
func (t *Tree) adopt(rf *buffer.Frame, sep uint64) page.ID {
	id := rf.ID()
	if n := (node{rf.Page}); n.isLeaf() && n.p.Next() == page.InvalidID {
		t.publishRightmost(id, sep)
	}
	t.pool.Unpin(rf, true)
	return id
}

// innerSplit moves the upper half of the full interior node n into rf,
// a new interior node, and returns the key promoted to the parent.
func (t *Tree) innerSplit(n node, rf *buffer.Frame) uint64 {
	r := node{rf.Page}
	mid := n.count() / 2
	sep := n.innerKey(mid)
	r.setChild0(n.innerChild(mid))
	moved := n.count() - mid - 1
	copy(r.body()[8:8+moved*entrySize], n.body()[8+(mid+1)*entrySize:8+n.count()*entrySize])
	r.setCount(moved)
	n.setCount(mid)
	return sep
}

// innerSplitInsert splits n into rf, inserts (sep, child) into the
// proper half, releases rf's pin, and returns the promoted key and rf's
// id.
func (t *Tree) innerSplitInsert(n node, sep uint64, child page.ID, rf *buffer.Frame) (uint64, page.ID) {
	promoted := t.innerSplit(n, rf)
	target := n
	if sep >= promoted {
		target = node{rf.Page}
	}
	target.innerInsertAt(innerInsertPos(target, sep), sep, child)
	return promoted, t.adopt(rf, promoted)
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
	_, _, err := t.check(t.root, 0, ^uint64(0))
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
