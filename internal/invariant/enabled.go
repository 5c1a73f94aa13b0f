//go:build hydradebug

package invariant

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
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

// gid returns the calling goroutine's id: a load from its runtime
// record at goidOff where getg has a stub (gid_amd64.s), else parsed
// out of the runtime.Stack header ("goroutine N [...]"), which costs
// microseconds.
func gid() uint64 {
	if goidOff != 0 {
		return *(*uint64)(unsafe.Add(getg(), goidOff))
	}
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

// goidOff is where a goroutine's runtime record keeps its id: the first
// offset, of its first 256 bytes, at which two fresh goroutines' records
// hold the ids their stacks print. 0 when none does or getg has no stub.
var goidOff uintptr

func init() {
	// holdsID reports whether a fresh goroutine's record holds, at
	// off, the id gid parses out of its stack.
	holdsID := func(off uintptr) bool {
		ok := make(chan bool)
		go func() { ok <- *(*uint64)(unsafe.Add(getg(), off)) == gid() }()
		return <-ok
	}
	for off := uintptr(8); getg() != nil && off < 256 && goidOff == 0; off += 8 {
		if holdsID(off) && holdsID(off) {
			goidOff = off
		}
	}
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
