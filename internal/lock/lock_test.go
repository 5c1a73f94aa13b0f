package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the canonical entries.
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, SIX, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false}, {IX, X, false},
		{S, S, true}, {S, IX, false}, {S, X, false},
		{SIX, IS, true}, {SIX, IX, false}, {SIX, S, false},
		{X, IS, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.held, c.req); got != c.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", c.held, c.req, got, c.want)
		}
	}
	// Symmetry property of the matrix.
	modes := []Mode{None, IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			if Compatible(a, b) != Compatible(b, a) {
				t.Errorf("compatibility not symmetric at (%v, %v)", a, b)
			}
		}
	}
}

func TestSupremumProperties(t *testing.T) {
	modes := []Mode{None, IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			s := Supremum(a, b)
			if Supremum(s, a) != s || Supremum(s, b) != s {
				t.Errorf("Supremum(%v,%v)=%v does not cover its arguments", a, b, s)
			}
			if s != Supremum(b, a) {
				t.Errorf("Supremum not commutative at (%v,%v)", a, b)
			}
			// Anything incompatible with a or b is incompatible with s.
			for _, c := range modes {
				if !Compatible(c, a) && Compatible(c, s) {
					t.Errorf("sup(%v,%v)=%v weaker than %v vs %v", a, b, s, a, c)
				}
			}
		}
	}
	if Supremum(S, IX) != SIX {
		t.Error("Supremum(S, IX) should be SIX")
	}
}

// eachManager runs fn on both shapes of the manager, opts' partitions
// set: one partition, where a table intent is a grant at the table's
// head, and 16, where it is a count on the table's intent word
// (counter.go).
func eachManager(t *testing.T, opts Options, fn func(t *testing.T, m *Manager)) {
	t.Helper()
	for _, n := range []int{1, 16} {
		opts.Partitions = n
		t.Run(fmt.Sprintf("parts=%d", n), func(t *testing.T) { fn(t, NewManager(opts)) })
	}
}

// intentOps is the lock-table visits a table intent costs on m: one at
// the head under one partition, none as a count.
func intentOps(m *Manager) uint64 {
	if m.words != nil {
		return 0
	}
	return 1
}

func TestBasicAcquireRelease(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		r := RowName(1, 100)
		if err := h.Acquire(r, X); err != nil {
			t.Fatal(err)
		}
		if h.Held(r) != X {
			t.Fatalf("Held = %v, want X", h.Held(r))
		}
		h.ReleaseAll()
		if h.Held(r) != None {
			t.Fatal("lock still held after release")
		}
	})
}

func TestSharedConcurrencyExclusiveBlocks(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		r := RowName(1, 1)
		if err := h1.Acquire(r, S); err != nil {
			t.Fatal(err)
		}
		if err := h2.Acquire(r, S); err != nil {
			t.Fatal(err) // S+S compatible
		}
		acquired := make(chan error, 1)
		go func() { acquired <- h3.Acquire(r, X) }()
		select {
		case err := <-acquired:
			t.Fatalf("X granted while S held: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		h1.ReleaseAll()
		h2.ReleaseAll()
		select {
		case err := <-acquired:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("X never granted")
		}
	})
}

func TestReentrantAcquire(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		r := RowName(1, 1)
		for i := 0; i < 3; i++ {
			if err := h.Acquire(r, S); err != nil {
				t.Fatal(err)
			}
		}
		// One grant, whatever the number of requests (counts are folded).
		if names := h.ReleaseAll(); len(names) != 1 || h.Held(r) != None {
			t.Fatalf("released %v; re-entrant lock not fully released", names)
		}
	})
}

func TestUpgradeSToX(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2 := m.NewHolder(1), m.NewHolder(2)
		r := RowName(1, 1)
		if err := h1.Acquire(r, S); err != nil {
			t.Fatal(err)
		}
		if err := h1.Acquire(r, X); err != nil {
			t.Fatal(err) // sole holder upgrades immediately
		}
		if h1.Held(r) != X {
			t.Fatalf("Held = %v after upgrade, want X", h1.Held(r))
		}
		// Another reader must now block.
		got := make(chan error, 1)
		go func() { got <- h2.Acquire(r, S) }()
		select {
		case <-got:
			t.Fatal("S granted during X")
		case <-time.After(20 * time.Millisecond):
		}
		h1.ReleaseAll()
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	})
}

func TestBlockedUpgradeWaitsForReaders(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2 := m.NewHolder(1), m.NewHolder(2)
		r := RowName(1, 1)
		h1.Acquire(r, S)
		h2.Acquire(r, S)
		done := make(chan error, 1)
		go func() { done <- h1.Acquire(r, X) }()
		select {
		case <-done:
			t.Fatal("upgrade granted with another reader present")
		case <-time.After(20 * time.Millisecond):
		}
		h2.ReleaseAll()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if h1.Held(r) != X {
			t.Fatalf("mode after blocked upgrade = %v", h1.Held(r))
		}
		h1.ReleaseAll()
	})
}

func TestUpgradePriorityOverQueuedWriters(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		r := RowName(1, 1)
		h1.Acquire(r, S)
		h2.Acquire(r, S)
		// Txn 3 queues for X behind the readers.
		got3 := make(chan error, 1)
		go func() { got3 <- h3.Acquire(r, X) }()
		time.Sleep(10 * time.Millisecond)
		// Txn 1 upgrades; it must be served before txn 3.
		got1 := make(chan error, 1)
		go func() { got1 <- h1.Acquire(r, X) }()
		time.Sleep(10 * time.Millisecond)
		h2.ReleaseAll()
		select {
		case err := <-got1:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("upgrade starved")
		}
		select {
		case <-got3:
			t.Fatal("queued writer served before upgrade completed")
		default:
		}
		h1.ReleaseAll()
		if err := <-got3; err != nil {
			t.Fatal(err)
		}
		h3.ReleaseAll()
	})
}

func TestDeadlockDetection(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2 := m.NewHolder(1), m.NewHolder(2)
		a, b := RowName(1, 1), RowName(1, 2)
		h1.Acquire(a, X)
		h2.Acquire(b, X)
		// Each transaction ends on its own goroutine: the victim aborts,
		// the survivor commits, and either way releases everything.
		errs := make(chan error, 2)
		run := func(h *Holder, n Name) {
			err := h.Acquire(n, X)
			h.ReleaseAll()
			errs <- err
		}
		go run(h1, b) // 1 waits on 2
		time.Sleep(20 * time.Millisecond)
		go run(h2, a) // closes the cycle
		var deadlocked int
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if errors.Is(err, ErrDeadlock) {
					deadlocked++
				} else if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("deadlock never resolved")
			}
		}
		if deadlocked == 0 {
			t.Fatal("no deadlock detected in a real cycle")
		}
		if got := m.StatsSnapshot().Deadlocks; got == 0 {
			t.Fatal("deadlock counter not bumped")
		}
	})
}

func TestWaitTimeout(t *testing.T) {
	eachManager(t, Options{WaitTimeout: 30 * time.Millisecond}, func(t *testing.T, m *Manager) {
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		r := RowName(1, 1)
		h1.Acquire(r, X)
		start := time.Now()
		err := h2.Acquire(r, X)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if time.Since(start) < 25*time.Millisecond {
			t.Fatal("timeout fired early")
		}
		h1.ReleaseAll()
		// The lock must still be grantable after a timed-out waiter.
		if err := h3.Acquire(r, X); err != nil {
			t.Fatal(err)
		}
		h3.ReleaseAll()
	})
}

func TestReleaseAllReturnsNames(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(7)
		h.Acquire(TableName(1), IX)
		h.Acquire(RowName(1, 5), X)
		h.Acquire(RowName(1, 6), X)
		names := h.ReleaseAll()
		if len(names) != 3 {
			t.Fatalf("ReleaseAll returned %d names, want 3", len(names))
		}
		if h.Held(RowName(1, 5)) != None {
			t.Fatal("row lock survived ReleaseAll")
		}
		if h.ReleaseAll() != nil {
			t.Fatal("second ReleaseAll returned names")
		}
	})
}

func TestFIFOFairnessNoWriterStarvation(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		r := RowName(1, 1)
		h1.Acquire(r, S)
		// Writer queues.
		wGot := make(chan error, 1)
		go func() { wGot <- h2.Acquire(r, X) }()
		time.Sleep(10 * time.Millisecond)
		// A later reader must NOT jump the queued writer.
		rGot := make(chan error, 1)
		go func() { rGot <- h3.Acquire(r, S) }()
		select {
		case <-rGot:
			t.Fatal("later reader overtook queued writer")
		case <-time.After(20 * time.Millisecond):
		}
		h1.ReleaseAll()
		if err := <-wGot; err != nil {
			t.Fatal(err)
		}
		h2.ReleaseAll()
		if err := <-rGot; err != nil {
			t.Fatal(err)
		}
		h3.ReleaseAll()
	})
}

func TestHierarchicalScenario(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		hs := []*Holder{m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)}
		// Txn 1: IX on table, X on row 1. Txn 2: IX on table, X on row 2.
		// These must all proceed without blocking.
		done := make(chan error, 2)
		for _, h := range hs[:2] {
			go func(h *Holder) {
				if err := h.Acquire(TableName(9), IX); err != nil {
					done <- err
					return
				}
				done <- h.Acquire(RowName(9, h.id), X)
			}(h)
		}
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		// Txn 3 wants S on the whole table: must wait for both IX holders.
		sGot := make(chan error, 1)
		go func() { sGot <- hs[2].Acquire(TableName(9), S) }()
		select {
		case <-sGot:
			t.Fatal("table S granted while IX held")
		case <-time.After(20 * time.Millisecond):
		}
		hs[0].ReleaseAll()
		hs[1].ReleaseAll()
		if err := <-sGot; err != nil {
			t.Fatal(err)
		}
		hs[2].ReleaseAll()
	})
}

func TestConcurrentDisjointThroughput(t *testing.T) {
	for _, parts := range []int{1, 16} {
		parts := parts
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			m := NewManager(Options{Partitions: parts})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w * 1000)
					h := m.NewHolder(base)
					for i := 0; i < 500; i++ {
						h.Reset(base + uint64(i))
						key := base + uint64(i%100)
						if err := h.Acquire(RowName(1, key), X); err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						h.ReleaseAll()
					}
				}(w)
			}
			wg.Wait()
			st := m.StatsSnapshot()
			if st.Acquires != 4000 {
				t.Fatalf("acquires = %d, want 4000", st.Acquires)
			}
		})
	}
}

func TestModeAndLevelStrings(t *testing.T) {
	if X.String() != "X" || IS.String() != "IS" || Mode(9).String() != "mode(9)" {
		t.Fatal("Mode.String mismatch")
	}
	if LevelRow.String() != "row" || Level(9).String() != "level(9)" {
		t.Fatal("Level.String mismatch")
	}
	if RowName(1, 2).String() != "row(1,2)" || TableName(3).String() != "table(3)" || DatabaseName().String() != "db" {
		t.Fatal("Name.String mismatch")
	}
}

func BenchmarkAcquireReleaseDisjoint(b *testing.B) {
	for _, parts := range []int{1, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			m := NewManager(Options{Partitions: parts})
			var seq atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				me := seq.Add(1)
				h := m.NewHolder(me * 1_000_000)
				i := uint64(0)
				for pb.Next() {
					h.Reset(me*1_000_000 + i)
					h.Acquire(RowName(1, me*100000+i%512), X)
					h.ReleaseAll()
					i++
				}
			})
		})
	}
}
