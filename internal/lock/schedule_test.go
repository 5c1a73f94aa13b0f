package lock

import (
	"errors"
	"slices"
	"testing"
)

// Single-goroutine schedules. Holder.try is Acquire up to its wait and
// never blocks, and a release never blocks either, so one goroutine can
// issue a schedule's requests and releases one step at a time and see
// each state: granted, queued (a waiter whose ready channel is empty),
// refused as the victim. A queued waiter's grant is a value already on
// its ready channel when the release that granted it returns; only then
// does the schedule finish its Acquire with wait, which returns at once.

// sched drives one manager's schedule and keeps the waiters queued.
type sched struct {
	t       *testing.T
	m       *Manager
	waiters []queuedReq
}

type queuedReq struct {
	h    *Holder
	name Name
	w    *waiter
}

// try issues h's request; a queued one is remembered, and its waiter
// must not be ready yet.
func (s *sched) try(h *Holder, name Name, mode Mode) error {
	s.t.Helper()
	w, err := h.try(name, mode)
	if w != nil {
		if len(w.ready) != 0 {
			s.t.Fatalf("txn %d on %s: queued and ready at once", h.id, name)
		}
		s.waiters = append(s.waiters, queuedReq{h, name, w})
	}
	return err
}

// mustQueue issues a request that must wait.
func (s *sched) mustQueue(h *Holder, name Name, mode Mode) *waiter {
	s.t.Helper()
	n := len(s.waiters)
	if err := s.try(h, name, mode); err != nil || len(s.waiters) == n {
		s.t.Fatalf("txn %d on %s (%s): err %v, queued %v; want it queued", h.id, name, mode, err, len(s.waiters) > n)
	}
	return s.waiters[n].w
}

// victim requires that err refused h's request as the deadlock victim
// before it entered the queue: no queue entry and no waits-for edge of
// its transaction remain.
func (s *sched) victim(h *Holder, err error) {
	s.t.Helper()
	if !errors.Is(err, ErrDeadlock) {
		s.t.Fatalf("txn %d: err %v, want ErrDeadlock at once", h.id, err)
	}
	if slices.Contains(queuedTxns(s.m), h.id) {
		s.t.Fatalf("victim txn %d is queued", h.id)
	}
	if on, ok := s.m.WaitsForSnapshot()[h.id]; ok {
		s.t.Fatalf("victim txn %d left waits-for edges %v", h.id, on)
	}
}

// commitGranted finishes the Acquire of every queued waiter whose grant
// is on its ready channel and ends its transaction, which may grant
// more, until no waiter is ready. It returns how many it finished.
func (s *sched) commitGranted() int {
	s.t.Helper()
	done := 0
	for progress := true; progress; {
		progress = false
		for i, q := range s.waiters {
			if len(q.w.ready) == 0 {
				continue
			}
			if err := s.m.wait(q.h, q.name, q.w); err != nil || q.h.Held(q.name) != q.w.mode {
				s.t.Fatalf("txn %d on %s: wait %v, holds %v; want %v", q.h.id, q.name, err, q.h.Held(q.name), q.w.mode)
			}
			s.waiters = slices.Delete(s.waiters, i, i+1)
			q.h.ReleaseAll()
			done++
			progress = true
			break
		}
	}
	return done
}

// queuedTxns lists the transactions queued anywhere in m.
func queuedTxns(m *Manager) []uint64 {
	var out []uint64
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		for _, lh := range p.table {
			for _, w := range lh.queue {
				out = append(out, w.txn)
			}
		}
		p.mu.Unlock()
	}
	return out
}

// granted fails unless every request, made in argument order, was
// granted.
func granted(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A release grants a queued waiter: the grant is on the waiter's ready
// channel when the release returns, and the waiter's edges have left
// the graph with it.
func TestScheduleReleaseGrantsQueuedWaiter(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		s := &sched{t: t, m: m}
		h1, h2 := m.NewHolder(1), m.NewHolder(2)
		r := RowName(1, 1)
		granted(t, h1.Acquire(r, S))
		w := s.mustQueue(h2, r, X)
		if on := m.WaitsForSnapshot()[2]; !slices.Equal(on, []uint64{1}) {
			t.Fatalf("queued X waits on %v, want [1]", on)
		}
		h1.ReleaseAll()
		if len(w.ready) != 1 {
			t.Fatal("the release returned without the grant on the waiter's ready channel")
		}
		if wf := m.WaitsForSnapshot(); len(wf) != 0 {
			t.Fatalf("granted waiter left edges %v", wf)
		}
		if s.commitGranted() != 1 {
			t.Fatal("the granted waiter did not finish")
		}
		if st := m.StatsSnapshot(); st.Waits != 1 || st.Deadlocks != 0 {
			t.Fatalf("waits %d, deadlocks %d; want 1, 0", st.Waits, st.Deadlocks)
		}
		assertTablesEmpty(t, m)
	})
}

// Two holders' rows close a cycle: the request that closes it is
// refused at once and leaves nothing behind, so a compatible request
// after it is judged against the holders alone, and the survivor is
// granted when the victim aborts.
func TestScheduleRowCycle(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		s := &sched{t: t, m: m}
		h1, h2, h3 := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3)
		a, b := RowName(1, 1), RowName(1, 2)
		granted(t,
			h1.Acquire(a, S),
			h2.Acquire(b, X))
		w1 := s.mustQueue(h1, b, X)
		s.victim(h2, s.try(h2, a, X))
		if st := m.StatsSnapshot(); st.Deadlocks != 1 || len(s.waiters) != 1 {
			t.Fatalf("deadlocks %d, %d queued; want 1, 1", st.Deadlocks, len(s.waiters))
		}
		// Nothing queues on a after the victim, so an S is granted at once.
		granted(t, h3.Acquire(a, S))
		h3.ReleaseAll()
		h2.ReleaseAll() // the victim aborts
		if len(w1.ready) != 1 || s.commitGranted() != 1 {
			t.Fatal("the survivor was not granted by the victim's abort")
		}
		assertTablesEmpty(t, m)
	})
}

// The cycle of TestScanDrainingACountedWriterDeadlocks, in both orders:
// a Scan holds a row and waits for the table S behind a writer's
// intent, which waits for that row. The second request is the victim.
func TestScheduleScanDrainingACountedWriter(t *testing.T) {
	for _, scanFirst := range []bool{true, false} {
		name := "writer waits first"
		if scanFirst {
			name = "scan waits first"
		}
		t.Run(name, func(t *testing.T) {
			eachManager(t, Options{}, func(t *testing.T, m *Manager) {
				s := &sched{t: t, m: m}
				tbl, row, own := TableName(5), RowName(5, 1), RowName(5, 2)
				scan, writer := m.NewHolder(1), m.NewHolder(2)
				granted(t,
					scan.Acquire(tbl, IS),
					scan.Acquire(row, S),
					writer.Acquire(tbl, IX),
					writer.Acquire(own, X))
				if scanFirst {
					s.mustQueue(scan, tbl, S)
					s.victim(writer, s.try(writer, row, X))
					writer.ReleaseAll()
				} else {
					s.mustQueue(writer, row, X)
					s.victim(scan, s.try(scan, tbl, S))
					scan.ReleaseAll()
				}
				if s.commitGranted() != 1 {
					t.Fatal("the survivor was not granted by the victim's abort")
				}
				assertTablesEmpty(t, m)
			})
		})
	}
}

// The cycles of TestCountedWritersThatScanDeadlock: two writers that
// hold intents on two tables each ask for an S that drains the other's,
// on one table or crossed over the two. The second request is the
// victim.
func TestScheduleCountedWritersThatScan(t *testing.T) {
	a, b := TableName(5), TableName(6)
	for _, tc := range []struct {
		name   string
		second Name
	}{{"one table", a}, {"crossed tables", b}} {
		t.Run(tc.name, func(t *testing.T) {
			eachManager(t, Options{}, func(t *testing.T, m *Manager) {
				s := &sched{t: t, m: m}
				w1, w2 := m.NewHolder(1), m.NewHolder(2)
				for _, h := range []*Holder{w1, w2} {
					granted(t,
						h.Acquire(a, IX),
						h.Acquire(b, IX))
				}
				s.mustQueue(w1, a, S)
				s.victim(w2, s.try(w2, tc.second, S))
				w2.ReleaseAll()
				if s.commitGranted() != 1 {
					t.Fatal("the survivor was not granted by the victim's abort")
				}
				assertTablesEmpty(t, m)
			})
		})
	}
}

// The cycle of TestUpgraderAheadOfAQueueDeadlocks: p asks for IX on a
// behind a Scan's S, u upgrades its intent on a to X ahead of p, and h,
// which holds an intent on a, asks for p's row. Whichever request
// closes the cycle is refused at once (u, whose jump the counted
// intents leave unnamed, or h, which finds it along named edges under
// one partition), and once the Scan leaves, everybody else finishes.
func TestScheduleUpgraderAheadOfAQueue(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		s := &sched{t: t, m: m}
		a, b, row := TableName(5), TableName(6), RowName(6, 1)
		scan, u, h, p := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3), m.NewHolder(4)
		granted(t,
			u.Acquire(a, IS),
			h.Acquire(a, IS),
			h.Acquire(b, IX),
			p.Acquire(b, IX),
			p.Acquire(row, X),
			scan.Acquire(a, S))
		s.mustQueue(p, a, IX)
		var victims []*Holder
		for _, req := range []struct {
			h    *Holder
			name Name
			mode Mode
		}{{u, a, X}, {h, row, X}} {
			if err := s.try(req.h, req.name, req.mode); err != nil {
				s.victim(req.h, err)
				victims = append(victims, req.h)
			}
		}
		if len(victims) != 1 || m.StatsSnapshot().Deadlocks != 1 {
			t.Fatalf("%d victims, want 1", len(victims))
		}
		victims[0].ReleaseAll()
		scan.ReleaseAll()
		if n := s.commitGranted(); n != 2 || len(s.waiters) != 0 {
			t.Fatalf("%d survivors finished, %d still queued; want 2, 0", n, len(s.waiters))
		}
		assertTablesEmpty(t, m)
	})
}
