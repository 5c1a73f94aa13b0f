// Known-good shapes: lockscope must stay silent on this entire file.
package a

import "sync"

// lockFree blocks with nothing held.
func lockFree(ch chan int) { ch <- 1 }

// afterUnlock blocks only once the lock is released.
func afterUnlock(s *shard, ch chan int) {
	s.mu.Lock()
	s.table[1] = 1
	s.mu.Unlock()
	ch <- 1
}

// branchReleases unlocks on both paths before any IO.
func branchReleases(p *pool, id uint64, fast bool) error {
	p.mu.Lock()
	if fast {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return p.writeBack(id)
}

// nonBlockingSelect cannot park: it has a default.
func nonBlockingSelect(s *shard, ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// condWaitOwnMutex: Cond.Wait releases the (only) held mutex while
// parked, the standard condition-variable protocol.
func condWaitOwnMutex(s *shard, c *sync.Cond) {
	s.mu.Lock()
	for s.table == nil {
		c.Wait()
	}
	s.mu.Unlock()
}

// checkpointer's lock is declared coarse: serializing a whole IO
// operation is its purpose, so it is not a guard for lockscope.
type checkpointer struct {
	//hydra:vet:coarse -- serializes whole checkpoints; a checkpoint is IO end to end
	mu    sync.Mutex
	store PageStore
}

func (c *checkpointer) checkpoint(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.WritePage(id)
}

// segdev mirrors wal.FileDevice: the device-level mutex is
// declared coarse because rotation must mutate the segment map, the
// dirty set, and the file set atomically — IO under it is the design,
// and the dirty-set bookkeeping it guards is what keeps Sync at
// O(dirty) instead of O(live segments).
type segdev struct {
	//hydra:vet:coarse -- device-level lock: rotation mutates segment map, dirty set, and files atomically
	mu    sync.Mutex
	dirty map[uint64]bool
	store PageStore
}

func (d *segdev) write(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.store.WritePage(id); err != nil {
		return err
	}
	d.dirty[id] = true
	return nil
}

func (d *segdev) syncDirty() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.dirty {
		if err := d.store.Sync(); err != nil {
			return err
		}
		delete(d.dirty, id)
	}
	return nil
}

// handoff releases the caller's lock before blocking; the marker keeps
// it out of may-block summaries.
//
//hydra:vet:nonpropagating -- releases s.mu before blocking on ch
func handoff(s *shard, ch chan int) {
	s.mu.Unlock()
	<-ch
}

func caller(s *shard, ch chan int) {
	s.mu.Lock()
	handoff(s, ch)
}

// suppressed demonstrates a justified line-level baseline.
func suppressed(s *shard, ch chan int) {
	s.mu.Lock()
	//hydra:vet:ignore lockscope -- capacity-1 channel, receiver guaranteed by protocol
	ch <- 1
	s.mu.Unlock()
}

// goroutineBodyIsNotUnderLock: the spawned literal runs with its own
// (empty) lock context.
func goroutineBodyIsNotUnderLock(s *shard, ch chan int) {
	s.mu.Lock()
	go func() {
		ch <- 1
	}()
	s.mu.Unlock()
}

// verShard is the version-chain shard shape: its mutex is spin-tier —
// the critical sections are map lookups and pointer splices only, so
// lockscope must stay silent even though the surrounding read path
// does IO before and after the section.
type verShard struct {
	mu     sync.Mutex
	chains map[uint64]int
}

func chainLookup(s *verShard, k uint64, p *pool) error {
	if err := p.store.ReadPage(k); err != nil { // heap read, nothing held
		return err
	}
	s.mu.Lock()
	_ = s.chains[k]
	s.mu.Unlock()
	return nil
}

func chainInstall(s *verShard, k uint64) {
	s.mu.Lock()
	s.chains[k] = s.chains[k] + 1
	s.mu.Unlock()
}
