package lock

import (
	"errors"
	"testing"
	"time"
)

// waitQueueLen polls until name's queue holds at least n waiters
// (white-box: the test shares the package and may peek under p.mu).
func waitQueueLen(t *testing.T, m *Manager, name Name, n int) {
	t.Helper()
	p := m.part(name)
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		got := 0
		if lh := p.table[name]; lh != nil {
			got = len(lh.queue)
		}
		p.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue on %s never reached %d waiters (at %d)", name, n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertTablesEmpty checks full lock-head reclamation: once every
// transaction has released, no partition may retain a head.
func assertTablesEmpty(t *testing.T, m *Manager) {
	t.Helper()
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n := len(p.table)
		p.mu.Unlock()
		if n != 0 {
			t.Fatalf("partition %d retains %d lock heads after full release", i, n)
		}
	}
}

// TestWaiterRemovalRegrantsOnTimeout pins the removeWaiter liveness
// fix, timeout variant: holder S, victim X queued, compatible S
// queued behind it. When the X times out, the S behind it must be
// admitted immediately — the holder never releases during the test,
// so only the removal-path regrant can wake it.
func TestWaiterRemovalRegrantsOnTimeout(t *testing.T) {
	eachManager(t, Options{WaitTimeout: 300 * time.Millisecond}, func(t *testing.T, m *Manager) {
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		r := RowName(1, 1)
		if err := h1.Acquire(r, S); err != nil {
			t.Fatal(err)
		}
		xErr := make(chan error, 1)
		go func() { xErr <- h2.Acquire(r, X) }()
		waitQueueLen(t, m, r, 1)

		// Stagger the S so its own timeout budget outlives the victim's by
		// a wide margin: its grant must come from the regrant, not be a
		// photo finish with its own timer.
		time.Sleep(150 * time.Millisecond)
		sErr := make(chan error, 1)
		go func() { sErr <- h3.Acquire(r, S) }()
		waitQueueLen(t, m, r, 2)

		if err := <-xErr; !errors.Is(err, ErrTimeout) {
			t.Fatalf("victim X: err = %v, want ErrTimeout", err)
		}
		select {
		case err := <-sErr:
			if err != nil {
				t.Fatalf("compatible S behind the timed-out X: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("S behind the timed-out X never granted (regrant missing)")
		}
		if h1.Held(r) != S {
			t.Fatal("holder's S was disturbed")
		}
		h1.ReleaseAll()
		h3.ReleaseAll()
		assertTablesEmpty(t, m)
	})
}

// TestRetiredHeadRecyclesClean pins the recycle protocol: a retired
// head popped for a different name must carry no stale grants or
// queue, and must enforce conflicts like a fresh head.
func TestRetiredHeadRecyclesClean(t *testing.T) {
	m := NewManager(Options{})
	h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
	a, b := RowName(1, 1), RowName(1, 2)
	if err := h1.Acquire(a, X); err != nil {
		t.Fatal(err)
	}
	h1.ReleaseAll()
	if st := m.StatsSnapshot(); st.HeadRetires != 1 {
		t.Fatalf("retires = %d after sole release, want 1", st.HeadRetires)
	}

	if err := h2.Acquire(b, S); err != nil {
		t.Fatal(err)
	}
	st := m.StatsSnapshot()
	if st.HeadRecycles != 1 {
		t.Fatalf("miss on %s did not pop the retired head (recycles=%d, allocs=%d)",
			b, st.HeadRecycles, st.HeadAllocs)
	}
	p := m.part(b)
	p.mu.Lock()
	lh := p.table[b]
	phantom := len(lh.granted) != 1 || lh.granted[2] == None
	stale := len(lh.queue) != 0
	p.mu.Unlock()
	if phantom {
		t.Fatal("recycled head carries phantom grants")
	}
	if stale {
		t.Fatal("recycled head carries a stale queue")
	}

	// The S on the recycled head must block a writer like any other.
	done := make(chan error, 1)
	go func() { done <- h3.Acquire(b, X) }()
	select {
	case <-done:
		t.Fatal("X granted while S held on a recycled head")
	case <-time.After(20 * time.Millisecond):
	}
	h2.ReleaseAll()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h3.ReleaseAll()
	assertTablesEmpty(t, m)
}
