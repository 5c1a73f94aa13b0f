package btree

import (
	"fmt"
	"sort"

	"hydra/internal/buffer"
	"hydra/internal/page"
)

// KV is one (key, value) pair for bulk loading.
type KV struct {
	Key, Value uint64
}

// bulkLeafFill is how many pairs BulkLoad packs into a leaf: a 90% fill
// leaves slack so the first post-load inserts do not split at once. A
// split that an append causes leaves the same fill behind (splitLeaf).
const bulkLeafFill = LeafCap * 9 / 10

// BulkLoad builds a tree bottom-up from sorted, duplicate-free pairs:
// leaves are packed left to right and linked, then each interior
// level is built over the previous one. It is O(n) with no latch or
// split overhead and is what recovery uses to rebuild indexes.
func BulkLoad(pool *buffer.Pool, mode Mode, pairs []KV) (*Tree, error) {
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return nil, fmt.Errorf("btree: BulkLoad input not sorted/unique at %d", i)
		}
	}
	if len(pairs) == 0 {
		return Create(pool, mode)
	}

	type child struct {
		id       page.ID
		firstKey uint64
	}

	// Build the leaf level.
	var level []child
	var prev *buffer.Frame
	for start := 0; start < len(pairs); start += bulkLeafFill {
		end := start + bulkLeafFill
		if end > len(pairs) {
			end = len(pairs)
		}
		f, err := pool.NewPage(page.TypeBTreeLeaf)
		if err != nil {
			return nil, err
		}
		n := node{f.Page}
		for i, kv := range pairs[start:end] {
			n.setLeafEntry(i, kv.Key, kv.Value)
		}
		n.setCount(end - start)
		if prev != nil {
			prev.Page.SetNext(f.ID())
			pool.Unpin(prev, true)
		}
		level = append(level, child{f.ID(), pairs[start].Key})
		prev = f
	}
	pool.Unpin(prev, true)
	// The last leaf is the door: the first append after a load (or a
	// restart, which rebuilds every index here) does not descend.
	last := level[len(level)-1]

	// Build interior levels until one node remains.
	perInner := InnerCap * 9 / 10
	if perInner < 1 {
		perInner = 1
	}
	for len(level) > 1 {
		var next []child
		for start := 0; start < len(level); {
			// One parent takes child0 plus up to perInner keyed children.
			f, err := pool.NewPage(page.TypeBTreeInner)
			if err != nil {
				return nil, err
			}
			n := node{f.Page}
			n.setChild0(level[start].id)
			keys := 0
			i := start + 1
			for ; i < len(level) && keys < perInner; i++ {
				n.setInnerEntry(keys, level[i].firstKey, level[i].id)
				keys++
			}
			n.setCount(keys)
			next = append(next, child{f.ID(), level[start].firstKey})
			pool.Unpin(f, true)
			start = i
		}
		level = next
	}
	t := Open(pool, level[0].id, mode)
	t.publishRightmost(last.id, last.firstKey)
	t.rightMax.Store(pairs[len(pairs)-1].Key)
	return t, nil
}

// SortKVs sorts pairs by key in place (helper for callers collecting
// unordered pairs, e.g. recovery's heap scans).
func SortKVs(pairs []KV) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
}
