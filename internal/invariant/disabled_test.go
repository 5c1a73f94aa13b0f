//go:build !hydradebug

package invariant

import "testing"

// The release-build stubs must be callable in any pattern without
// side effects — including ones that would panic under hydradebug.
func TestStubsAreInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the hydradebug tag")
	}
	var shard Mutex[PoolShard]
	var part Mutex[LockPart]
	shard.Lock()
	part.Lock() // inversion: ignored without the tag
	part.Unlock()
	shard.Unlock()
	shard.Lock()
	Check[Tree]() // under a higher rank: ignored without the tag
	shard.Unlock()
	released(frameLatch) // never held
	obj := new(int)
	PoolPut("never got", obj)
	PoolGot("a", obj)
	PoolGot("b", obj)
	Assert(false, "ignored")
}
