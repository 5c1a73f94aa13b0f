package wal

import (
	"sync/atomic"

	"hydra/internal/invariant"
)

// frontier tracks the contiguously-filled prefix of the log buffer
// when records are copied in out of order (decoupled buffer fill).
// Writers complete arbitrary [start, end) intervals; Filled() is the
// highest LSN below which every byte has been copied.
type frontier struct {
	mu      invariant.Mutex[invariant.WALFrontier]
	filled  atomic.Uint64
	pending map[uint64]uint64 // start -> end of completed, detached intervals
}

func newFrontier() *frontier {
	return &frontier{pending: make(map[uint64]uint64)}
}

// complete marks [start, end) as filled. It reports whether that
// closed a gap: the contiguous frontier moved past end, over intervals
// other writers had completed out of order.
//
// A non-nil stamp receives start before the interval can count as
// filled, whichever writer's complete later carries the frontier past
// it: so every record below Filled() has stored its stamp, and a
// reader that loads Filled() first sees each of those stamps. A record
// that starts exactly at the frontier may be stamped and not yet
// filled.
func (f *frontier) complete(start, end uint64, stamp *atomic.Uint64) bool {
	if stamp != nil {
		stamp.Store(start)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.filled.Load()
	if start != cur {
		f.pending[start] = end
		return false
	}
	// Advance through any now-contiguous pending intervals.
	upTo := end
	for {
		if next, ok := f.pending[upTo]; ok {
			delete(f.pending, upTo)
			upTo = next
			continue
		}
		break
	}
	f.filled.Store(upTo)
	return upTo > end
}

// Filled returns the contiguously-filled LSN frontier.
func (f *frontier) Filled() uint64 { return f.filled.Load() }
