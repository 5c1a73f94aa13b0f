package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hydra/internal/invariant"
	"hydra/internal/latch"
	"hydra/internal/obs"
	"hydra/internal/page"
)

// Frame is a buffer slot holding one resident page. Content access
// must be bracketed by Latch acquisition; residency (pin/unpin) is
// managed by the pool.
type Frame struct {
	Page  *page.Page
	Latch latch.Latch

	id    page.ID // current occupant; pool-internal, guarded by shard mutex
	pins  int32
	ref   bool // clock reference bit
	dirty bool
	// loading marks in-flight store IO on the frame: a read filling it
	// on a miss, or the write-back evicting its dirty occupant.
	// Concurrent fetchers of the page wait on the shard condition
	// variable instead of blocking the whole shard; victim scans skip
	// the frame (it is also pinned for the duration). Guarded by the
	// shard mutex. No allocation per miss: waiters park on shard.cond.
	loading bool
	// recLSN is a lower bound of every LSN a logged write stamped on
	// the page since it was last written back (0: none), noted under
	// the page's X latch before the record is appended (WillLog); feeds
	// the dirty-page table at checkpoints. Cleared under the shard
	// mutex with no writer possible (a shared latch, or no pin).
	recLSN atomic.Uint64
}

// clearRecLSN forgets the page's recLSN, with no writer able to note
// one meanwhile (see recLSN). Most frames have none: the load spares
// them a fenced store.
func (f *Frame) clearRecLSN() {
	if f.recLSN.Load() != 0 {
		f.recLSN.Store(0)
	}
}

// ID returns the id of the page currently in the frame.
func (f *Frame) ID() page.ID { return f.id }

// Options configures a Pool.
type Options struct {
	// Frames is the pool capacity in pages. Default 1024.
	Frames int
	// Shards partitions the pool; 1 reproduces the conventional
	// single-mutex design. Default 16.
	Shards int
	// LatchKind selects the per-frame latch implementation.
	LatchKind latch.Kind
	// Log is the write-ahead log the pages' records are in; nil when
	// they carry none.
	Log Log
}

// Log is the write-ahead log as the pool needs it.
type Log interface {
	// WaitFlushed blocks until the log is durable up to a page's LSN:
	// a page is written back only after that (the WAL rule).
	WaitFlushed(pageLSN uint64) error
	// Frontier returns a lower bound of the LSN the log gives the next
	// record of a page change (WillLog): a record boundary, and never
	// 0, which a recLSN uses for none.
	Frontier() uint64
}

func (o *Options) fill() {
	if o.Frames <= 0 {
		o.Frames = 1024
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Shards > o.Frames {
		o.Shards = o.Frames
	}
}

// Stats are cumulative pool counters; the tags define each metric for
// every surface (DESIGN.md §7).
type Stats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
}

// ErrNoFrames is returned when every frame in the target shard is
// pinned and no victim exists.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// Pool is the buffer pool.
type Pool struct {
	opts   Options
	store  PageStore
	shards []shard

	// Striped counters: hits in particular are bumped by every reader
	// on the Fetch fast path, so a single shared word would serialize
	// the very path the sharded table decentralizes.
	hits, misses, evictions, writebacks obs.Counter
}

type shard struct {
	mu invariant.Mutex[invariant.PoolShard]
	// cond (Wait releases mu) is broadcast whenever in-flight frame IO
	// settles: fetchers of a loading page and victim scans starved by
	// transient IO pins park here.
	cond   sync.Cond
	table  map[page.ID]*Frame
	frames []*Frame
	hand   int
	// ioBusy counts frames with loading set. A victim scan that comes
	// up empty while ioBusy > 0 waits and rescans instead of reporting
	// a spurious ErrNoFrames.
	ioBusy int
	_      [32]byte // avoid false sharing between shard headers
}

// NewPool creates a pool of opts.Frames frames over store.
func NewPool(store PageStore, opts Options) *Pool {
	opts.fill()
	p := &Pool{opts: opts, store: store, shards: make([]shard, opts.Shards)}
	for i := range p.shards {
		p.shards[i].table = make(map[page.ID]*Frame)
		p.shards[i].cond.L = &p.shards[i].mu
		p.shards[i].frames = make([]*Frame, 0, (opts.Frames+opts.Shards-1)/opts.Shards)
	}
	// One slice each for the pages and the frames: a frame's one
	// allocation is its latch. Each shard owns a contiguous run of the
	// frames, so neighbours on a cache line share one shard mutex.
	pages := make([]page.Page, opts.Frames)
	frames := make([]Frame, opts.Frames)
	for i := range frames {
		f := &frames[i]
		*f = Frame{Page: &pages[i], Latch: latch.New(opts.LatchKind), id: page.InvalidID}
		s := &p.shards[i*opts.Shards/opts.Frames]
		s.frames = append(s.frames, f)
	}
	return p
}

func (p *Pool) shardFor(id page.ID) *shard {
	// Fibonacci hashing spreads sequential ids across shards.
	h := uint64(id) * 0x9e3779b97f4a7c15
	return &p.shards[h%uint64(len(p.shards))]
}

// Fetch pins the page with the given id, reading it from the store on
// a miss, and returns its frame. The caller must Unpin exactly once.
// Content access requires acquiring the frame latch.
//
// All store IO happens outside the shard mutex. On a miss the frame is
// reserved (pinned, tabled, marked loading) under the lock, then
// filled without it, so one slow read stalls only fetchers of that
// page, not the whole shard. Evicting a dirty victim follows the same
// shape: the victim is reserved under the lock and written back
// outside it (see victimLocked).
func (p *Pool) Fetch(id page.ID) (*Frame, error) { return p.fetch(id, nil) }

// FetchC is Fetch with a phase clock: contended shard-mutex
// acquisition is attributed to the latch-wait phase, and miss-path
// work (store read, dirty-victim write-back, waiting out another
// fetcher's in-flight IO) to the buffer-miss phase. The hit path with
// an uncontended shard mutex performs no clock reads; a nil clock
// makes FetchC identical to Fetch.
func (p *Pool) FetchC(id page.ID, c *obs.PhaseClock) (*Frame, error) {
	return p.fetch(id, c)
}

func (p *Pool) fetch(id page.ID, c *obs.PhaseClock) (*Frame, error) {
	s := p.shardFor(id)
	s.mu.LockC(c)
	for {
		if f, ok := s.table[id]; ok {
			if f.loading {
				// In-flight IO on this entry: another fetcher's read
				// fill, or the write-back evicting the page. Wait for
				// it to settle and re-examine: a completed fill is a
				// hit; a completed eviction or failed fill leaves no
				// entry and this fetcher (re)reads the page itself.
				if c != nil {
					t0 := obs.Now()
					s.cond.Wait()
					c.Add(obs.PhaseBufMissIO, obs.Now()-t0)
				} else {
					s.cond.Wait()
				}
				continue
			}
			f.pins++
			f.ref = true
			s.mu.Unlock()
			p.hits.Add(1)
			return f, nil
		}
		p.misses.Add(1)
		f, needsWB, err := p.victimLocked(s, c)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if needsWB {
			s.mu.Unlock()
			werr := p.flushFrameC(f, c)
			s.mu.Lock()
			p.evictReserved(s, f, werr)
			if werr != nil {
				s.mu.Unlock()
				return nil, werr
			}
			if _, ok := s.table[id]; ok {
				// Another fetcher tabled the target while the victim
				// write-back was in flight. Hand the frame back to
				// circulation and take the hit path.
				f.pins = 0
				f.ref = false
				s.cond.Broadcast()
				continue
			}
		}
		f.id = id
		f.pins = 1 // reservation: excludes the frame from victim scans
		f.ref = true
		f.dirty = false
		f.clearRecLSN()
		f.loading = true
		s.ioBusy++
		s.table[id] = f
		s.mu.Unlock()

		if c != nil {
			t0 := obs.Now()
			err = p.store.ReadPage(id, f.Page)
			c.Add(obs.PhaseBufMissIO, obs.Now()-t0)
		} else {
			err = p.store.ReadPage(id, f.Page)
		}

		s.mu.Lock()
		f.loading = false
		s.ioBusy--
		if err != nil {
			// Return the frame to circulation explicitly: drop the
			// table entry and clear occupancy so the next victim scan
			// can reuse it immediately.
			delete(s.table, id)
			f.id = page.InvalidID
			f.pins = 0
			f.ref = false
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// NewPage reserves a fresh page id, formats the page in a frame with
// the given type, pins it, and returns the frame. The page is born
// here, dirty, and costs the store no IO: its first image is the one
// its eviction (or a FlushAll) writes.
func (p *Pool) NewPage(t page.Type) (*Frame, error) { return p.newPage(t, nil) }

// NewPageC is NewPage with a phase clock (see FetchC for the
// attribution rules).
func (p *Pool) NewPageC(t page.Type, c *obs.PhaseClock) (*Frame, error) {
	return p.newPage(t, c)
}

func (p *Pool) newPage(t page.Type, c *obs.PhaseClock) (*Frame, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	s := p.shardFor(id)
	s.mu.LockC(c)
	f, needsWB, err := p.victimLocked(s, c)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if needsWB {
		s.mu.Unlock()
		werr := p.flushFrameC(f, c)
		s.mu.Lock()
		p.evictReserved(s, f, werr)
		if werr != nil {
			s.mu.Unlock()
			return nil, werr
		}
		// No table recheck needed: id was freshly allocated, so no
		// concurrent fetcher can have tabled it meanwhile.
	}
	f.Page.Format(id, t)
	f.id = id
	f.pins = 1
	f.ref = true
	f.dirty = true // a formatted page must reach disk eventually
	f.clearRecLSN()
	s.table[id] = f
	s.mu.Unlock()
	return f, nil
}

// victimLocked returns an evictable frame in s. A clean (or empty)
// victim comes back detached — table entry and occupancy already
// cleared — with needsWriteBack false. A dirty victim cannot be
// written back here, because store IO must not happen under the shard
// mutex; it is instead reserved in place: pinned and marked loading
// under its old id, so fetchers of that page wait and victim scans
// skip it. The caller must then drop s.mu, write the page out
// (flushFrame), retake s.mu, and complete or abort the eviction with
// evictReserved. Caller holds s.mu.
func (p *Pool) victimLocked(s *shard, c *obs.PhaseClock) (f *Frame, needsWriteBack bool, err error) {
	for {
		// Clock sweep: up to two full passes (first pass clears ref
		// bits).
		for pass := 0; pass < 2*len(s.frames); pass++ {
			f := s.frames[s.hand]
			s.hand = (s.hand + 1) % len(s.frames)
			if f.pins > 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			if f.id == page.InvalidID {
				return f, false, nil
			}
			if f.dirty {
				f.pins = 1
				f.loading = true
				s.ioBusy++
				return f, true, nil
			}
			delete(s.table, f.id)
			f.id = page.InvalidID
			p.evictions.Add(1)
			return f, false, nil
		}
		if s.ioBusy == 0 {
			return nil, false, ErrNoFrames
		}
		// Every unpinned frame is tied up in transient IO (a fill or a
		// write-back that may fail and return its frame). Wait for one
		// to settle and rescan rather than reporting a spurious
		// ErrNoFrames.
		if c != nil {
			t0 := obs.Now()
			s.cond.Wait()
			c.Add(obs.PhaseBufMissIO, obs.Now()-t0)
		} else {
			s.cond.Wait()
		}
	}
}

// evictReserved completes (or, on write-back failure, aborts) the
// eviction of a dirty victim reserved by victimLocked. werr is the
// flushFrame result obtained outside the lock. On success the frame
// is detached like a clean victim but keeps its reservation pin; on
// failure it returns to circulation still dirty and tabled. Caller
// holds s.mu.
func (p *Pool) evictReserved(s *shard, f *Frame, werr error) {
	invariant.Assert(f.loading, "buffer: evictReserved on a frame that is not reserved")
	invariant.Assert(f.pins == 1, "buffer: reserved victim's pin count drifted during write-back")
	f.loading = false
	s.ioBusy--
	if werr != nil {
		f.pins = 0
		f.ref = false
		s.cond.Broadcast()
		return
	}
	f.dirty = false
	f.clearRecLSN()
	p.writebacks.Add(1)
	delete(s.table, f.id)
	f.id = page.InvalidID
	p.evictions.Add(1)
	s.cond.Broadcast()
}

// flushFrame makes f's content durable: the WAL-first flush, then the
// page write. It touches no pool bookkeeping — callers clear
// dirty/recLSN under the shard mutex according to their protocol —
// and must be called with the frame's content stable (latched shared,
// or reserved and unpinned) and the shard mutex NOT held.
func (p *Pool) flushFrame(f *Frame) error { return p.flushFrameC(f, nil) }

// flushFrameC is flushFrame with the write-back time (WAL-first flush
// included) attributed to the clock's buffer-miss phase.
func (p *Pool) flushFrameC(f *Frame, c *obs.PhaseClock) error {
	var t0 int64
	if c != nil {
		t0 = obs.Now()
	}
	err := p.flushFrameIO(f)
	if c != nil {
		c.Add(obs.PhaseBufMissIO, obs.Now()-t0)
	}
	return err
}

func (p *Pool) flushFrameIO(f *Frame) error {
	if p.opts.Log != nil {
		if err := p.opts.Log.WaitFlushed(f.Page.LSN()); err != nil {
			return fmt.Errorf("buffer: WAL flush before writeback: %w", err)
		}
	}
	return p.store.WritePage(f.Page)
}

// WillLog tells the pool that the caller, holding f X-latched, is
// about to append the log record of a change to f and stamp f with it.
// The page's recLSN, where redo must start for it, drops to the log's
// frontier now, a lower bound of that record's LSN. Noted before the
// append, it is in the dirty-page table of every checkpoint whose begin
// record follows the record, whenever the writer unpins; and it stays
// the lowest, whichever writer of the page unpins first. Without
// Options.Log it does nothing.
func (p *Pool) WillLog(f *Frame) {
	if p.opts.Log != nil {
		lowerRecLSN(f, p.opts.Log.Frontier())
	}
}

// Replayed tells the pool that the caller, holding f X-latched,
// stamped f with a record already in the log at lsn (restart's redo).
func (p *Pool) Replayed(f *Frame, lsn uint64) { lowerRecLSN(f, lsn) }

func lowerRecLSN(f *Frame, lsn uint64) {
	for lsn != 0 {
		cur := f.recLSN.Load()
		if cur != 0 && cur <= lsn || f.recLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Unpin releases one pin. If dirty is true the page is marked for
// writeback.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	s := p.shardFor(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", f.id))
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
}

// FlushAll writes back every dirty page (checkpoint helper). Pages
// pinned by concurrent users are flushed too: their frame latch is
// taken shared to get a consistent image.
func (p *Pool) FlushAll() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		var dirty []*Frame
		for _, f := range s.frames {
			if f.id != page.InvalidID && f.dirty {
				f.pins++ // hold residency while we flush outside the shard lock
				dirty = append(dirty, f)
			}
		}
		s.mu.Unlock()
		for _, f := range dirty {
			f.Latch.Acquire(latch.Shared)
			err := p.flushFrame(f)
			// Clear the dirty flag under the shard mutex but before
			// the latch drops: the moment the latch is released a
			// writer can re-dirty the frame, and that later update
			// must not be masked by this flush's bookkeeping.
			s.mu.Lock()
			if err == nil {
				f.dirty = false
				f.clearRecLSN()
				p.writebacks.Add(1)
			}
			f.pins--
			s.mu.Unlock()
			f.Latch.Release(latch.Shared)
			if err != nil {
				return err
			}
		}
	}
	return p.store.Sync()
}

// FlushPage writes back one pinned frame immediately (used for the
// checkpoint master record). The caller must hold a pin; the frame
// latch is taken shared for a consistent image.
func (p *Pool) FlushPage(f *Frame) error {
	f.Latch.Acquire(latch.Shared)
	defer f.Latch.Release(latch.Shared)
	err := p.flushFrame(f)
	if err == nil {
		s := p.shardFor(f.id) // id is stable: the caller holds a pin
		s.mu.Lock()
		f.dirty = false
		f.clearRecLSN()
		p.writebacks.Add(1)
		s.mu.Unlock()
	}
	return err
}

// DirtyPageTable returns (pageID -> recLSN) for every dirty resident
// page, the DPT snapshot a fuzzy checkpoint logs. A page a writer has
// noted (WillLog) but not yet unpinned is in it too.
func (p *Pool) DirtyPageTable() map[uint64]uint64 {
	dpt := make(map[uint64]uint64)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if rec := f.recLSN.Load(); f.id != page.InvalidID && (f.dirty || rec != 0) {
				dpt[uint64(f.id)] = rec
			}
		}
		s.mu.Unlock()
	}
	return dpt
}

// StatsSnapshot returns a copy of the cumulative counters.
func (p *Pool) StatsSnapshot() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Writebacks: p.writebacks.Load(),
	}
}

// Store exposes the underlying page store (used by recovery, which
// bypasses the pool).
func (p *Pool) Store() PageStore { return p.store }
