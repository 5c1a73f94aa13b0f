package lock

import (
	"testing"
	"time"
)

// heatUp drives enough conflict on a name to cross the hot threshold.
func heatUp(t *testing.T, m *Manager, name Name) {
	t.Helper()
	a, b := m.NewHolder(0), m.NewHolder(0)
	for i := 0; i < 10; i++ {
		a.Reset(uint64(9000 + i*2))
		b.Reset(uint64(9001 + i*2))
		if err := a.Acquire(name, S); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- b.Acquire(name, X) }() // conflicts: contention++
		time.Sleep(2 * time.Millisecond)
		a.ReleaseAll()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		b.ReleaseAll()
	}
}

func TestSLIInheritsHotIntentLocks(t *testing.T) {
	m := NewManager(Options{HotThreshold: 2})
	tbl := TableName(5)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()

	// First transaction acquires through the table and commits; the
	// hot IX lock should be inherited by the agent.
	h := m.NewHolder(100)
	if err := a.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(h, RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	a.OnCommit(h)
	if a.InheritedCount() != 1 {
		t.Fatalf("inherited %d locks, want 1 (the hot table IX)", a.InheritedCount())
	}
	// Row lock must have been fully released, not inherited.
	other := m.NewHolder(200)
	if err := other.Acquire(RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()

	// Subsequent transactions on the same agent skip the table.
	before := m.StatsSnapshot()
	for txn := uint64(101); txn <= 110; txn++ {
		h.Reset(txn)
		if err := a.Acquire(h, tbl, IX); err != nil {
			t.Fatal(err)
		}
		a.OnCommit(h)
	}
	after := m.StatsSnapshot()
	if hits := after.Inherited - before.Inherited; hits != 10 {
		t.Fatalf("inherited hits = %d, want 10", hits)
	}
	if tableOps := after.TableOps - before.TableOps; tableOps != 0 {
		t.Fatalf("table ops = %d during inherited acquisitions, want 0", tableOps)
	}
}

func TestSLIIntentLocksStayCompatibleAcrossAgents(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	tbl := TableName(6)
	heatUp(t, m, tbl)

	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()

	h1, h2 := m.NewHolder(300), m.NewHolder(301)
	if err := a1.Acquire(h1, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a1.OnCommit(h1)
	if err := a2.Acquire(h2, tbl, IX); err != nil {
		t.Fatal(err) // IX + IX compatible even with a1's retained lock
	}
	a2.OnCommit(h2)
	if a1.InheritedCount() == 0 || a2.InheritedCount() == 0 {
		t.Fatal("both agents should retain the hot IX")
	}
}

func TestSLIReclaimOnConflict(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	tbl := TableName(7)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()
	h := m.NewHolder(400)
	if err := a.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommit(h)
	if a.InheritedCount() != 1 {
		t.Fatal("setup: lock not inherited")
	}

	// Another transaction wants table X: blocked by the agent's
	// retained IX.
	got := make(chan error, 1)
	other := m.NewHolder(500)
	go func() { got <- other.Acquire(tbl, X) }()
	select {
	case <-got:
		t.Fatal("X granted while agent retained IX")
	case <-time.After(20 * time.Millisecond):
	}

	// The agent's next boundary must surrender the retained lock.
	h.Reset(401)
	if err := a.Acquire(h, RowName(7, 1), X); err != nil {
		t.Fatal(err)
	}
	a.OnCommit(h)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent never surrendered retained lock")
	}
	if a.InheritedCount() != 0 {
		t.Fatal("cache not cleared after reclaim")
	}
	other.ReleaseAll()
}

func TestSLIDoesNotInheritRowOrExclusive(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	row := RowName(8, 1)
	heatUp(t, m, row)
	tbl := TableName(8)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()
	h := m.NewHolder(600)
	if err := a.Acquire(h, row, X); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(h, tbl, S); err != nil { // S is not an intent mode
		t.Fatal(err)
	}
	a.OnCommit(h)
	if a.InheritedCount() != 0 {
		t.Fatalf("agent inherited %d non-intent locks", a.InheritedCount())
	}
}

func TestSLIAbortReleasesEverything(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	tbl := TableName(10)
	heatUp(t, m, tbl)
	a := m.NewAgent()
	defer a.Close()
	h := m.NewHolder(700)
	if err := a.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnAbort(h)
	if a.InheritedCount() != 0 {
		t.Fatal("abort inherited locks")
	}
	// Table must be immediately lockable in X.
	other := m.NewHolder(701)
	if err := other.Acquire(tbl, X); err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
}

// TestSLIInheritedHitNotesHolder pins the bookkeeping contract of a
// cache-satisfied Agent.Acquire: the transaction logically holds the
// lock (Holder.Held reports it) even though the table grant belongs
// to the agent, and the commit boundary neither drops the agent's
// retained grant nor leaves the name in the holder's set.
func TestSLIInheritedHitNotesHolder(t *testing.T) {
	m := NewManager(Options{HotThreshold: 2})
	tbl := TableName(11)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()

	h := m.NewHolder(900)
	if err := a.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommit(h)
	if a.InheritedCount() != 1 {
		t.Fatal("setup: hot IX not inherited")
	}

	// Second transaction on the same holder: the acquire is satisfied
	// from the agent cache, never visiting the table.
	h.Reset(901)
	before := m.StatsSnapshot()
	if err := a.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	after := m.StatsSnapshot()
	if after.Inherited != before.Inherited+1 {
		t.Fatalf("acquire was not cache-satisfied (inherited %d -> %d)",
			before.Inherited, after.Inherited)
	}
	if got := h.Held(tbl); got != IX {
		t.Fatalf("Holder.Held after inherited hit = %v, want IX", got)
	}

	// The boundary releases h's logical hold; the agent's real table
	// grant and cache entry must survive it.
	a.OnCommit(h)
	if a.InheritedCount() != 1 {
		t.Fatal("commit of an inherited hit dropped the agent's retained lock")
	}
	if got := h.Held(tbl); got != None {
		t.Fatalf("Holder.Held after commit = %v, want None", got)
	}

	// The retained grant is real: it still blocks a table X until the
	// agent lets go.
	got := make(chan error, 1)
	other := m.NewHolder(950)
	go func() { got <- other.Acquire(tbl, X) }()
	select {
	case <-got:
		t.Fatal("X granted past the agent's retained IX")
	case <-time.After(20 * time.Millisecond):
	}
	a.ReleaseInherited()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
}

// A transaction served by an agent asks for a table lock the agent's
// inherited grant conflicts with — a scan's S or a table X after a
// write under the inherited IX. The agent never waits, so queueing
// behind it would never end; the transaction takes the agent's grant
// over and upgrades it, and waits only for other owners: a second
// agent's IX blocks the X as it would anyone's.
func TestSLITransactionDoesNotWaitOnItsOwnAgent(t *testing.T) {
	// The timeout only bounds the failure.
	m := NewManager(Options{HotThreshold: 1, WaitTimeout: 2 * time.Second})
	tbl := TableName(12)
	heatUp(t, m, tbl)
	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()
	h := m.NewHolder(1000)
	for _, a := range []*Agent{a1, a2} {
		if err := a.Acquire(h, tbl, IX); err != nil {
			t.Fatal(err)
		}
		a.OnCommit(h)
		if a.InheritedCount() != 1 {
			t.Fatal("setup: hot IX not inherited")
		}
	}

	// Alone but for its own agent: S, then X, at once.
	a2.ReleaseInherited()
	h.Reset(1001)
	if err := a1.Acquire(h, tbl, IX); err != nil { // from the cache
		t.Fatal(err)
	}
	waits := m.StatsSnapshot().Waits
	start := time.Now()
	if err := a1.Acquire(h, tbl, S); err != nil {
		t.Fatal(err)
	}
	if err := a1.Acquire(h, tbl, X); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second || h.Held(tbl) != X || a1.InheritedCount() != 0 {
		t.Fatalf("after %v: table %v, agent retains %d; want X at once and the grant taken over", d, h.Held(tbl), a1.InheritedCount())
	}
	if got := m.StatsSnapshot().Waits; got != waits {
		t.Fatalf("the transaction waited %d times beside its own agent", got-waits)
	}
	a1.OnCommit(h)

	// Another agent's retained IX blocks the same X until that agent
	// lets go.
	h.Reset(1002)
	if err := a2.Acquire(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a2.OnCommit(h)
	if a2.InheritedCount() != 1 {
		t.Fatal("setup: second agent did not inherit")
	}
	h.Reset(1003)
	got := make(chan error, 1)
	go func() { got <- a1.Acquire(h, tbl, X) }()
	select {
	case err := <-got:
		t.Fatalf("X granted past another agent's retained IX: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a2.ReleaseInherited()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	a1.OnCommit(h)
}
