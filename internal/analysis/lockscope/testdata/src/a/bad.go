// Package a is lockscope's known-bad fixture: every want line is a
// blocking operation inside a critical section.
package a

import (
	"invariant"
	"sync"
)

// PageStore mirrors the shape of hydra's buffer.PageStore; lockscope
// matches the interface name so fixtures need no hydra imports.
type PageStore interface {
	ReadPage(id uint64) error
	WritePage(id uint64) error
	Sync() error
}

type shard struct {
	mu    sync.Mutex
	table map[uint64]int
}

type pool struct {
	mu    sync.Mutex
	store PageStore
	dirty bool
}

// sendUnderLock blocks on a channel inside the critical section.
func sendUnderLock(s *shard, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want "channel send while holding s.mu"
	s.mu.Unlock()
}

// recvUnderDefer: a deferred unlock holds the lock to function end,
// so the receive is still inside the critical section.
func recvUnderDefer(s *shard, ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-ch // want "channel receive while holding s.mu"
}

// ioUnderLock is the direct form of the dirty-victim write-back bug.
func (p *pool) ioUnderLock(id uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.WritePage(id) // want "\\(PageStore\\).WritePage while holding p.mu"
}

// fetch reproduces the pre-fix shape of buffer.Pool.Fetch: the hit
// path unlocks and returns early, and the miss path calls a victim
// scan that reaches store IO two frames down — only the
// terminated-branch-aware interprocedural analysis sees it.
func (p *pool) fetch(id uint64) error {
	p.mu.Lock()
	if p.dirty {
		p.mu.Unlock()
		return nil
	}
	err := p.victim(id) // want "call to victim may block .writeBack → \\(PageStore\\).WritePage. while holding p.mu"
	p.mu.Unlock()
	return err
}

func (p *pool) victim(id uint64) error { return p.writeBack(id) }

func (p *pool) writeBack(id uint64) error { return p.store.WritePage(id) }

// waitUnderLock: WaitGroup.Wait blocks until someone else calls Done.
func waitUnderLock(s *shard, wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "\\(sync.WaitGroup\\).Wait while holding s.mu"
	s.mu.Unlock()
}

// condWaitTwoLocks: Cond.Wait releases its own mutex, but the second
// held lock stays held across the sleep.
func condWaitTwoLocks(a, b *shard, c *sync.Cond) {
	a.mu.Lock()
	b.mu.Lock()
	c.Wait() // want "\\(sync.Cond\\).Wait while holding"
	b.mu.Unlock()
	a.mu.Unlock()
}

// devUncoarse is the WAL dirty-segment-sync shape with a plain guard
// mutex: fsyncing the dirty set while holding it is exactly the stall
// the coarse marker exists to force a decision about (compare segdev
// in good.go, whose device mutex is declared coarse).
type devUncoarse struct {
	mu    sync.Mutex
	dirty map[uint64]bool
	store PageStore
}

func (d *devUncoarse) syncDirty() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.dirty {
		if err := d.store.Sync(); err != nil { // want "\\(PageStore\\).Sync while holding d.mu"
			return err
		}
		delete(d.dirty, id)
	}
	return nil
}

// blockingSelect has no default, so it parks.
func blockingSelect(s *shard, ch chan int) {
	s.mu.Lock()
	select { // want "blocking select while holding s.mu"
	case v := <-ch:
		s.table[0] = v
	case ch <- 2:
	}
	s.mu.Unlock()
}

// verShardIO is the chain-walk regression lockscope guards against:
// resolving a version by rereading the heap page while still holding
// the chain shard's spin-tier mutex turns every concurrent install on
// the shard into an IO-length stall.
type verShardIO struct {
	mu    sync.Mutex
	store PageStore
}

func (s *verShardIO) resolveFromHeap(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.ReadPage(id) // want "\\(PageStore\\).ReadPage while holding s.mu"
}

// rankedShard is a shard as a hydradebug build declares it: the ranked
// mutex guards its critical section like a sync one.
type rankedShard struct {
	mu    invariant.Mutex[invariant.PoolShard]
	store PageStore
}

func (s *rankedShard) writeBackUnderLock(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.WritePage(id) // want "\\(PageStore\\).WritePage while holding s.mu"
}

// fetchClocked is E22 seed A against today's buffer.fetch: the shard
// lock is taken by the clocked acquire, inline, and the dirty victim's
// write-back runs without dropping it.
func (s *rankedShard) fetchClocked(id uint64, c *invariant.PhaseClock) error {
	s.mu.LockC(c)
	err := s.writeBack(id) // want "call to writeBack may block .\\(PageStore\\).WritePage. while holding s.mu"
	s.mu.Unlock()
	return err
}

func (s *rankedShard) writeBack(id uint64) error { return s.store.WritePage(id) }
