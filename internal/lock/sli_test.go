package lock

import (
	"errors"
	"testing"
	"time"
)

// keep runs one agent transaction that takes tbl in mode and commits,
// and fails unless the agent keeps the intent lock.
func keep(t *testing.T, a *Agent, tbl Name, mode Mode) {
	t.Helper()
	a.Begin(nil)
	if err := a.Acquire(tbl, mode); err != nil {
		t.Fatal(err)
	}
	a.Commit(0)
	if got := a.h.Held(tbl); got != mode {
		t.Fatalf("agent keeps %v on %s after commit, want %v", got, tbl, mode)
	}
}

// tableOps returns the lock-table visits so far.
func tableOps(m *Manager) uint64 { return m.StatsSnapshot().TableOps }

func TestSLIInheritsHotIntentLocks(t *testing.T) {
	m := NewManager(Options{})
	tbl := TableName(5)
	a := m.NewAgent()
	defer a.Close()

	// The first transaction takes the table IX and a row through the
	// table and commits: the agent keeps the IX, not the row.
	a.Begin(nil)
	if err := a.Acquire(tbl, IX); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	a.Commit(0)
	if a.h.Held(tbl) != IX || a.h.Held(RowName(5, 1)) != None {
		t.Fatalf("after commit: table %v, row %v; want IX kept and the row released", a.h.Held(tbl), a.h.Held(RowName(5, 1)))
	}
	other := m.NewHolder(200)
	if err := other.Acquire(RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()

	// Later transactions on the same agent skip the table: their
	// requests are counted and covered.
	before := m.StatsSnapshot()
	for i := 0; i < 10; i++ {
		a.Begin(nil)
		if err := a.Acquire(tbl, IX); err != nil {
			t.Fatal(err)
		}
		a.Commit(0)
	}
	after := m.StatsSnapshot()
	if covered := (after.Acquires - before.Acquires) - (after.TableOps - before.TableOps); covered != 10 {
		t.Fatalf("covered acquisitions = %d, want 10", covered)
	}
	if ops := after.TableOps - before.TableOps; ops != 0 {
		t.Fatalf("table ops = %d during kept acquisitions, want 0", ops)
	}
}

func TestSLIIntentLocksStayCompatibleAcrossAgents(t *testing.T) {
	m := NewManager(Options{})
	tbl := TableName(6)
	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()
	keep(t, a1, tbl, IX)
	keep(t, a2, tbl, IX) // IX + IX compatible with a1's kept lock
	if a1.h.Held(tbl) != IX {
		t.Fatal("the first agent lost its IX")
	}
}

func TestSLIReclaimOnConflict(t *testing.T) {
	m := NewManager(Options{})
	tbl := TableName(7)
	a := m.NewAgent()
	defer a.Close()
	keep(t, a, tbl, IX)

	// Another transaction wants table X: blocked by the agent's kept
	// IX.
	got := make(chan error, 1)
	other := m.NewHolder(500)
	go func() { got <- other.Acquire(tbl, X) }()
	waitQueueLen(t, m, tbl, 1)
	select {
	case <-got:
		t.Fatal("X granted while agent kept IX")
	case <-time.After(20 * time.Millisecond):
	}

	// The agent's next boundary must surrender the kept lock.
	a.Begin(nil)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent never surrendered its kept lock")
	}
	if a.h.Held(tbl) != None {
		t.Fatal("kept IX survived the reclaim")
	}
	a.Commit(0)
	other.ReleaseAll()
}

func TestSLIDoesNotInheritRowOrExclusive(t *testing.T) {
	m := NewManager(Options{})
	row, tbl := RowName(8, 1), TableName(8)
	a := m.NewAgent()
	defer a.Close()
	a.Begin(nil)
	if err := a.Acquire(row, X); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(tbl, S); err != nil { // S is not an intent mode
		t.Fatal(err)
	}
	a.Commit(0)
	if a.h.Held(row) != None || a.h.Held(tbl) != None {
		t.Fatalf("agent keeps row %v, table %v; want neither", a.h.Held(row), a.h.Held(tbl))
	}
	assertTablesEmpty(t, m)
}

func TestSLIAbortReleasesEverything(t *testing.T) {
	m := NewManager(Options{})
	tbl := TableName(10)
	a := m.NewAgent()
	defer a.Close()
	keep(t, a, tbl, IX)
	a.Begin(nil)
	if err := a.Acquire(RowName(10, 1), X); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	if a.h.Held(tbl) != None {
		t.Fatal("abort kept the intent lock")
	}
	// Table must be immediately lockable in X.
	other := m.NewHolder(701)
	if err := other.Acquire(tbl, X); err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
	assertTablesEmpty(t, m)
}

// TestSLIInheritedHitNotesHolder pins the bookkeeping of a kept lock:
// the agent's set reports it, a request it covers never visits the
// table, the commit boundary keeps it, and the grant is real.
func TestSLIInheritedHitNotesHolder(t *testing.T) {
	m := NewManager(Options{})
	tbl := TableName(11)
	a := m.NewAgent()
	defer a.Close()
	keep(t, a, tbl, IX)

	a.Begin(nil)
	ops := tableOps(m)
	if err := a.Acquire(tbl, IS); err != nil { // IX covers IS
		t.Fatal(err)
	}
	if err := a.Acquire(tbl, IX); err != nil {
		t.Fatal(err)
	}
	if got := tableOps(m); got != ops {
		t.Fatalf("covered requests visited the table %d times", got-ops)
	}
	a.Commit(0)
	if got := a.h.Held(tbl); got != IX {
		t.Fatalf("Held after commit = %v, want IX", got)
	}

	// The kept grant still blocks a table X until the agent lets go.
	got := make(chan error, 1)
	other := m.NewHolder(950)
	go func() { got <- other.Acquire(tbl, X) }()
	select {
	case <-got:
		t.Fatal("X granted past the agent's kept IX")
	case <-time.After(20 * time.Millisecond):
	}
	a.ReleaseInherited()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
}

// A transaction served by an agent asks for a table lock the agent's
// kept grant conflicts with — a scan's S or a table X after a write
// under the kept IX. That is an upgrade of the agent's own grant, so
// the transaction never queues behind its own agent; it waits only for
// other owners: a second agent's IX blocks the X as it would anyone's.
func TestSLITransactionDoesNotWaitOnItsOwnAgent(t *testing.T) {
	// The timeout only bounds the failure.
	m := NewManager(Options{WaitTimeout: 2 * time.Second})
	tbl := TableName(12)
	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()
	keep(t, a1, tbl, IX)

	// Alone but for its own agent: S, then X, at once.
	a1.Begin(nil)
	if err := a1.Acquire(tbl, IX); err != nil { // covered
		t.Fatal(err)
	}
	waits := m.StatsSnapshot().Waits
	start := time.Now()
	if err := a1.Acquire(tbl, S); err != nil {
		t.Fatal(err)
	}
	if err := a1.Acquire(tbl, X); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second || a1.h.Held(tbl) != X {
		t.Fatalf("after %v: table %v; want X at once", d, a1.h.Held(tbl))
	}
	if got := m.StatsSnapshot().Waits; got != waits {
		t.Fatalf("the transaction waited %d times beside its own agent", got-waits)
	}
	a1.Commit(0)
	if a1.h.Held(tbl) != None {
		t.Fatal("the agent kept a table X")
	}

	// Another agent's kept IX blocks the same X until that agent lets
	// go.
	keep(t, a2, tbl, IX)
	a1.Begin(nil)
	got := make(chan error, 1)
	go func() { got <- a1.Acquire(tbl, X) }()
	select {
	case err := <-got:
		t.Fatalf("X granted past another agent's kept IX: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a2.ReleaseInherited()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	a1.Commit(0)
}

// Two agents' transactions that each hold a row the other asks for are
// a deadlock, found as one: the waits-for edges name the agents.
func TestSLIAgentsDeadlockOnRows(t *testing.T) {
	m := NewManager(Options{WaitTimeout: 10 * time.Second}) // bounds the failure
	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()
	r1, r2 := RowName(13, 1), RowName(13, 2)
	for _, x := range []struct {
		a   *Agent
		row Name
	}{{a1, r1}, {a2, r2}} {
		x.a.Begin(nil)
		if err := x.a.Acquire(TableName(13), IX); err != nil {
			t.Fatal(err)
		}
		if err := x.a.Acquire(x.row, X); err != nil {
			t.Fatal(err)
		}
	}
	first := make(chan error, 1)
	go func() { first <- a1.Acquire(r2, X) }()
	waitQueueLen(t, m, r2, 1)
	start := time.Now()
	err := a2.Acquire(r1, X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("the cycle's second wait = %v after %v, want ErrDeadlock", err, time.Since(start))
	}
	a2.Abort()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	a1.Commit(0)
	if st := m.StatsSnapshot(); st.Deadlocks != 1 || st.Timeouts != 0 {
		t.Fatalf("deadlocks %d, timeouts %d; want 1, 0", st.Deadlocks, st.Timeouts)
	}
}

// A wait on a row an agent's transaction holds ends at its commit, and
// leaves the agent its kept intent lock: only table waits reclaim.
func TestSLIRowWaitKeepsIntents(t *testing.T) {
	m := NewManager(Options{WaitTimeout: 2 * time.Second}) // bounds the failure
	tbl, row := TableName(14), RowName(14, 1)
	a := m.NewAgent()
	defer a.Close()
	keep(t, a, tbl, IX)
	a.Begin(nil)
	if err := a.Acquire(row, X); err != nil {
		t.Fatal(err)
	}
	other := m.NewHolder(1400)
	if err := other.Acquire(tbl, IX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- other.Acquire(row, X) }()
	waitQueueLen(t, m, row, 1)
	a.Commit(0)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
	a.Begin(nil)
	ops := tableOps(m)
	if err := a.Acquire(tbl, IX); err != nil {
		t.Fatal(err)
	}
	if a.h.Held(tbl) != IX || tableOps(m) != ops {
		t.Fatal("a row wait made the agent drop its kept IX")
	}
	a.Commit(0)
}

// A waits-for edge left by a waiter that outlasts the agent transaction
// it named does not close a cycle with the agent's next one. B waits
// for a row behind C while an agent's first transaction holds it; the
// commit grants C, and B keeps waiting with its edge to the agent. The
// agent's second transaction then waits for a row B holds: a wait, not
// a deadlock, which ends when C and B are done.
func TestSLIStaleEdgeIsNotACycle(t *testing.T) {
	m := NewManager(Options{WaitTimeout: 10 * time.Second}) // bounds the failure
	r, q := RowName(15, 1), RowName(15, 2)
	a := m.NewAgent()
	defer a.Close()
	b, c := m.NewHolder(1501), m.NewHolder(1502)
	a.Begin(nil)
	if err := a.Acquire(r, X); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(q, X); err != nil {
		t.Fatal(err)
	}
	cGot, bGot := make(chan error, 1), make(chan error, 1)
	go func() { cGot <- c.Acquire(r, X) }()
	waitQueueLen(t, m, r, 1)
	go func() { bGot <- b.Acquire(r, X) }()
	waitQueueLen(t, m, r, 2)
	time.Sleep(5 * time.Millisecond) // past B's edge building
	a.Commit(0)
	if err := <-cGot; err != nil {
		t.Fatal(err)
	}

	a.Begin(nil)
	aGot := make(chan error, 1)
	go func() { aGot <- a.Acquire(q, X) }()
	waitQueueLen(t, m, q, 1)
	select {
	case err := <-aGot:
		t.Fatalf("the agent's second transaction: %v, want a wait", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.ReleaseAll()
	if err := <-bGot; err != nil {
		t.Fatal(err)
	}
	b.ReleaseAll()
	if err := <-aGot; err != nil {
		t.Fatal(err)
	}
	a.Commit(0)
	if d := m.StatsSnapshot().Deadlocks; d != 0 {
		t.Fatalf("%d deadlocks, want 0", d)
	}
	assertTablesEmpty(t, m)
}

// Under the scalable manager an agent keeps its intent as a count on
// the table's word, which no waiter can name to flag the agent. A Scan
// that queues sets the word's head bit instead, and the agent's next
// commit finds it and drops the count rather than keep it — whether
// the Scan queued while the agent's transaction ran or while the agent
// was idle.
func TestSLIKeptCountYieldsToAHead(t *testing.T) {
	m := NewManager(Options{Partitions: 16, WaitTimeout: 2 * time.Second})
	tbl := TableName(7)
	a := m.NewAgent()
	defer a.Close()
	keep(t, a, tbl, IX)
	if a.h.held[tbl] != IX|counted {
		t.Fatalf("kept %v, want a counted IX", a.h.held[tbl])
	}
	scan := func() chan error {
		got := make(chan error, 1)
		go func() {
			h := m.NewHolder(500)
			err := h.Acquire(tbl, S)
			h.ReleaseAll()
			got <- err
		}()
		waitQueueLen(t, m, tbl, 1)
		return got
	}

	// Queued while a transaction ran: it keeps its count to its end.
	a.Begin(nil)
	got := scan()
	if err := a.Acquire(RowName(7, 1), X); err != nil {
		t.Fatal(err)
	}
	a.Commit(0)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if a.h.Held(tbl) != None {
		t.Fatal("the agent kept its count past a commit that found the head bit set")
	}

	// Queued while the agent was idle: its next transaction runs on
	// the kept count, and its commit gives it up.
	keep(t, a, tbl, IX)
	got = scan()
	a.Begin(nil)
	if err := a.Acquire(tbl, IX); err != nil { // covered by the kept count
		t.Fatal(err)
	}
	a.Commit(0)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if a.h.Held(tbl) != None {
		t.Fatal("a commit kept a count the head drains")
	}
}
