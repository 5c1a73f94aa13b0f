//go:build hydradebug

package invariant

import (
	"fmt"
	"runtime"
	"sync"
)

// Enabled reports whether the assertions are compiled in.
const Enabled = true

var (
	mu sync.Mutex
	// stacks tracks, per goroutine, the tiers currently held.
	stacks = map[uint64][]*tier{}
	// owned maps a pooled object to the site that took it from its
	// pool and has not yet put it back.
	owned = map[any]string{}
)

// gid parses the calling goroutine's id out of the runtime.Stack
// header ("goroutine N [...]"). Slow, which is fine: this file only
// exists under the hydradebug tag.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// acquired records that the calling goroutine is taking a lock of
// tier t. It panics if the goroutine already holds a lock with a
// strictly higher rank: that acquisition order can deadlock against a
// goroutine locking in the declared order. Equal ranks nest freely
// (latch crabbing).
func acquired(t *tier) {
	g := gid()
	mu.Lock()
	defer mu.Unlock()
	outranked(g, t, "acquiring")
	stacks[g] = append(stacks[g], t)
}

// entered is acquired's check without the hold: the calling goroutine
// is at tier t and takes no lock there (Check).
func entered(t *tier) {
	g := gid()
	mu.Lock()
	defer mu.Unlock()
	outranked(g, t, "entering")
}

// outranked panics if goroutine g holds a lock ranked above t. Caller
// holds mu.
func outranked(g uint64, t *tier, verb string) {
	for _, h := range stacks[g] {
		if h.rank > t.rank {
			panic(fmt.Sprintf("invariant: latch-order violation: %s %s (tier %d) while holding %s (tier %d)",
				verb, t.site, t.rank, h.site, h.rank))
		}
	}
}

// released drops the most recent hold of tier t. Releases may happen
// in any order (crabbing releases the parent first). It panics if the
// goroutine does not hold a lock of that tier.
func released(t *tier) {
	g := gid()
	mu.Lock()
	defer mu.Unlock()
	st := stacks[g]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == t {
			stacks[g] = append(st[:i], st[i+1:]...)
			if len(stacks[g]) == 0 {
				delete(stacks, g)
			}
			return
		}
	}
	panic(fmt.Sprintf("invariant: releasing %s (tier %d) that this goroutine does not hold", t.site, t.rank))
}

// PoolGot records ownership of an object taken from a sync.Pool (or
// created fresh on a pool miss). It panics if the object is already
// outstanding: two holders of one pooled object.
func PoolGot(site string, obj any) {
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := owned[obj]; ok {
		panic(fmt.Sprintf("invariant: pooled object got at %s is already outstanding from %s", site, prev))
	}
	owned[obj] = site
}

// PoolPut ends ownership of a pooled object. It panics on a Put of an
// object that is not outstanding: a double Put, or a Put of something
// that never went through PoolGot.
func PoolPut(site string, obj any) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := owned[obj]; !ok {
		panic(fmt.Sprintf("invariant: %s puts a pooled object that is not outstanding (double Put?)", site))
	}
	delete(owned, obj)
}

// Assert panics with the message if cond is false.
func Assert(cond bool, msg string) {
	if !cond {
		panic("invariant: " + msg)
	}
}
