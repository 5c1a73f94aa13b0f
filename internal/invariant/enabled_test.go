//go:build hydradebug

package invariant

import "testing"

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestTierOrderEnforced(t *testing.T) {
	var shardA, shardB Mutex[PoolShard]
	var part Mutex[LockPart]
	var frame RWMutex[FrameLatch]
	frame.RLock()
	shardA.Lock() // ascending: fine
	shardB.Lock() // equal: crabbing, fine
	shardB.Unlock()
	mustPanic(t, "descending acquire", func() {
		part.Lock() // 50 under held 70: inversion
	})
	shardA.Unlock()
	frame.RUnlock()
	mustPanic(t, "release of unheld", func() {
		released(frameLatch)
	})
}

// TestRankedTypesRecordEveryAcquisition: both sides of an RWMutex and
// a successful try record the hold; a failed try records nothing.
func TestRankedTypesRecordEveryAcquisition(t *testing.T) {
	var tree RWMutex[Tree]
	var ckpt Mutex[EngineCkpt]
	var wal Mutex[WALLog]
	tree.RLock()
	mustPanic(t, "lock under a shared hold", func() { ckpt.Lock() })
	tree.RUnlock()
	tree.LockC(nil)
	mustPanic(t, "lock under a clocked hold", func() { ckpt.Lock() })
	tree.Unlock()
	if !wal.TryLock() {
		t.Fatal("TryLock of a free lock failed")
	}
	if wal.TryLock() {
		t.Fatal("TryLock of a held lock succeeded")
	}
	mustPanic(t, "lock under a try-taken hold", func() { ckpt.Lock() })
	wal.Unlock()
	ckpt.Lock() // nothing held any more
	ckpt.Unlock()
}

// TestCheckRanksWithoutHolding: Check panics where an acquisition of
// its tier would, and leaves no hold behind where it does not.
func TestCheckRanksWithoutHolding(t *testing.T) {
	var frame RWMutex[FrameLatch]
	Check[Tree]()
	mustPanic(t, "release after a check", func() { released(treeMu) })
	frame.RLock()
	Check[FrameLatch]() // equal rank: fine
	mustPanic(t, "check under a higher rank", func() { Check[Tree]() })
	frame.RUnlock()
}

func TestTierStacksArePerGoroutine(t *testing.T) {
	var wal Mutex[WALLog]
	wal.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The other goroutine holds tier 80; this one holds nothing,
		// so a low-tier acquire here must be fine.
		var ckpt Mutex[EngineCkpt]
		ckpt.Lock()
		ckpt.Unlock()
	}()
	<-done
	wal.Unlock()
}

func TestPoolOwnership(t *testing.T) {
	obj := new(int)
	PoolGot("test.get", obj)
	mustPanic(t, "double get", func() { PoolGot("test.get2", obj) })
	PoolPut("test.put", obj)
	mustPanic(t, "double put", func() { PoolPut("test.put2", obj) })
}

func TestAssert(t *testing.T) {
	Assert(true, "unreachable")
	mustPanic(t, "failed assert", func() { Assert(false, "boom") })
}
