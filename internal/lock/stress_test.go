package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hydra/internal/rng"
)

// TestManagerConcurrentStress drives every public entry point of the
// manager — holder acquisition, counted and granted table intents,
// escalation, and ReleaseAll — from many goroutines at once, each with
// its one holder. Meant for -race: the striped waits-for graph, the
// lock heads' spare lists and the tables' intent words all see
// cross-goroutine traffic here, and a holder touched by a second
// goroutine would show up as a race.
func TestManagerConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := NewManager(Options{
		Partitions:  64,
		WaitTimeout: 2 * time.Second,
	})
	const (
		workers = 8
		iters   = 300
		tables  = 3
	)
	expected := func(err error) bool {
		return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*104729 + 7)
			h := m.NewHolder(0)
			for i := 0; i < iters; i++ {
				h.Reset(uint64(w)<<32 | uint64(i+1))
				// One iteration in eight is a bulk burst over private
				// rows, whose 64th makes the holder try for the table
				// lock: refused while another worker's intent lock is
				// on the shared table, granted
				// — and then in everybody's way — when not, as on the
				// worker's own table half the bursts go to.
				table := uint32(1 + r.Intn(tables))
				n, bulk := 1+r.Intn(10), r.Bool(0.125)
				if bulk {
					n = 64 + r.Intn(32)
					if r.Bool(0.5) {
						table = uint32(tables + 1 + w)
					}
				}
				ok := true
				if err := h.Acquire(TableName(table), IX); err != nil {
					if !expected(err) {
						t.Errorf("worker %d iter %d: table IX: %v", w, i, err)
					}
					ok = false
				}
				// A small shared key range forces conflicts and
				// exercises the deadlock detector.
				for j := 0; j < n && ok; j++ {
					key := uint64(r.Intn(16))
					if bulk {
						key = uint64(w+1)<<16 | uint64(j)
					}
					mode := S
					if r.Bool(0.3) {
						mode = X
					}
					if err := h.Acquire(RowName(table, key), mode); err != nil {
						if !expected(err) {
							t.Errorf("worker %d iter %d: row: %v", w, i, err)
						}
						ok = false
					}
				}
				h.ReleaseAll()
			}
		}(w)
	}
	wg.Wait()
	if st := m.StatsSnapshot(); st.Escalations == 0 || st.EscalationRefusals == 0 {
		t.Errorf("escalations %d, refusals %d: the bulk bursts never drove both outcomes", st.Escalations, st.EscalationRefusals)
	}

	// Everything must be released, every count too: a fresh
	// transaction can take X on every table.
	h := m.NewHolder(1)
	for table := uint32(1); table <= tables+workers; table++ {
		if err := h.Acquire(TableName(table), X); err != nil {
			t.Fatalf("post-stress X on table %d: %v", table, err)
		}
	}
	h.ReleaseAll()
}

// TestLockHeadRecyclingStress churns the full head lifecycle under
// -race: tiny wait timeouts fire removeWaiter constantly, a small hot
// key set keeps heads flipping between live and retired, and every
// path that retires a head (releaseOne, removeWaiter) races against the freelist pops of concurrent
// misses. The retire hand-off publishes heads through a CAS on the
// partition freelist, so any touch of recycled state outside the
// protocol shows up as a race or a hydradebug pool assertion.
func TestLockHeadRecyclingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := NewManager(Options{
		Partitions:  4,
		WaitTimeout: 2 * time.Millisecond,
	})
	const (
		workers = 8
		iters   = 400
		keys    = 8
	)
	expected := func(err error) bool {
		return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*7919 + 3)
			h := m.NewHolder(uint64(w+1) << 32)
			for i := 0; i < iters; i++ {
				h.Reset(uint64(w+1)<<32 | uint64(i+1))
				n := 1 + r.Intn(4)
				for j := 0; j < n; j++ {
					mode := S
					if r.Bool(0.5) {
						mode = X
					}
					if err := h.Acquire(RowName(1, uint64(r.Intn(keys))), mode); err != nil {
						if !expected(err) {
							t.Errorf("worker %d iter %d: %v", w, i, err)
						}
						break
					}
				}
				h.ReleaseAll()
			}
		}(w)
	}
	wg.Wait()

	// Full churn must leave nothing behind: every head either granted
	// away and released, or timed out of the queue — so every
	// partition table must be empty, with the freelist having cycled.
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n := len(p.table)
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("partition %d retains %d heads after stress", i, n)
		}
	}
	st := m.StatsSnapshot()
	if st.HeadRetires == 0 || st.HeadRecycles == 0 {
		t.Fatalf("freelist never cycled: allocs=%d recycles=%d retires=%d",
			st.HeadAllocs, st.HeadRecycles, st.HeadRetires)
	}

	// Recycled heads must still enforce exclusivity correctly.
	h := m.NewHolder(1)
	for k := uint64(0); k < keys; k++ {
		if err := h.Acquire(RowName(1, k), X); err != nil {
			t.Fatalf("post-stress X on key %d: %v", k, err)
		}
	}
	h.ReleaseAll()
}
