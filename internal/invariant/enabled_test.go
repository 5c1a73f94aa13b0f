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
	var txn Mutex[TxnMu]
	Acquired(TierFrameLatch, "latch")
	shardA.Lock() // ascending: fine
	shardB.Lock() // equal: crabbing, fine
	shardB.Unlock()
	mustPanic(t, "descending acquire", func() {
		txn.Lock() // 61 under held 70: inversion
	})
	shardA.Unlock()
	Released(TierFrameLatch, "latch")
	mustPanic(t, "release of unheld", func() {
		Released(TierFrameLatch, "latch")
	})
}

// TestRankedTypesRecordEveryAcquisition: both sides of an RWMutex and
// a successful try record the hold; a failed try records nothing.
func TestRankedTypesRecordEveryAcquisition(t *testing.T) {
	var tree RWMutex[Tree]
	var ckpt Mutex[EngineCkpt]
	tree.RLock()
	mustPanic(t, "lock under a shared hold", func() { ckpt.Lock() })
	tree.RUnlock()
	if !tree.TryLock() {
		t.Fatal("TryLock of a free lock failed")
	}
	if tree.TryRLock() {
		t.Fatal("TryRLock under an exclusive hold succeeded")
	}
	mustPanic(t, "lock under a try-taken hold", func() { ckpt.Lock() })
	tree.Unlock()
	ckpt.Lock() // nothing held any more
	ckpt.Unlock()
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
