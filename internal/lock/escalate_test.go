package lock

import (
	"sync"
	"testing"
	"time"

	"hydra/internal/invariant"
)

// rows asks h for rows [from, to] of table in mode the way the engine
// does: the table's intent lock, then the row.
func rows(t *testing.T, h *Holder, table uint32, from, to uint64, mode Mode) {
	t.Helper()
	intent := IS
	if mode == X {
		intent = IX
	}
	for k := from; k <= to; k++ {
		if err := h.Acquire(TableName(table), intent); err != nil {
			t.Fatal(err)
		}
		if err := h.Acquire(RowName(table, k), mode); err != nil {
			t.Fatal(err)
		}
	}
}

// noWaitTrace fails when anything of the blocking path is left behind:
// a wait counted, a waiter queued, a waits-for edge.
func noWaitTrace(t *testing.T, m *Manager) {
	t.Helper()
	if _, queued := m.OldestWaiterAge(); queued != 0 {
		t.Fatalf("%d waiters queued", queued)
	}
	if wf := m.WaitsForSnapshot(); len(wf) != 0 {
		t.Fatalf("waits-for edges left behind: %v", wf)
	}
	if st := m.StatsSnapshot(); st.Waits != 0 || st.Deadlocks != 0 {
		t.Fatalf("waits = %d, deadlocks = %d", st.Waits, st.Deadlocks)
	}
}

// A transaction alone on a table holds it in X from its 64th row on,
// and the rows after that never reach the lock table.
func TestLoneTransactionEscalatesAtRow64(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		rows(t, h, 3, 1, 63, X)
		if h.Held(TableName(3)) != IX || m.StatsSnapshot().Escalations != 0 {
			t.Fatal("escalated below 64 rows")
		}
		rows(t, h, 3, 64, 64, X)
		st := m.StatsSnapshot()
		// The table IX (unless counted), 63 rows, the conversion: the 64th
		// row itself is answered by the table lock it brought about.
		if want := 64 + intentOps(m); h.Held(TableName(3)) != X || st.Escalations != 1 || st.TableOps != want {
			t.Fatalf("after row 64: table held %v, escalations %d, table ops %d; want X, 1, %d",
				h.Held(TableName(3)), st.Escalations, st.TableOps, want)
		}
		rows(t, h, 3, 65, 500, X)
		after := m.StatsSnapshot()
		if after.TableOps != st.TableOps {
			t.Fatalf("rows 65..500 visited the lock table %d times", after.TableOps-st.TableOps)
		}
		if got := after.Acquires - st.Acquires; got != 2*436 {
			t.Fatalf("acquires counted %d of 872 requests", got)
		}
		if after.EscalatedAcqs != 436 || after.EscalationRefusals != 0 {
			t.Fatalf("escalated_acquires = %d, refusals = %d; want 436, 0", after.EscalatedAcqs, after.EscalationRefusals)
		}
		// A held X covers reads of its rows too.
		rows(t, h, 3, 600, 610, S)
		if got := m.StatsSnapshot().TableOps; got != st.TableOps {
			t.Fatalf("reads under the table X visited the lock table")
		}

		// The table X keeps everyone else out until the transaction ends.
		got := make(chan error, 1)
		other := m.NewHolder(2)
		go func() { got <- other.Acquire(TableName(3), IX) }()
		select {
		case <-got:
			t.Fatal("intent lock granted under another transaction's table X")
		case <-time.After(20 * time.Millisecond):
		}
		if names := h.ReleaseAll(); len(names) != 64 {
			t.Fatalf("released %d locks, want the table and 63 rows", len(names))
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		other.ReleaseAll()
		if h.Held(TableName(3)) != None {
			t.Fatal("table lock survived ReleaseAll")
		}
	})
}

// A table somebody else is on refuses: nothing is queued, nothing
// waits, the transaction keeps taking row locks, and it asks again
// when its rows have doubled, not at the next row.
func TestEscalationRefusedWhileTableIsShared(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other func(t *testing.T, m *Manager) (release func())
	}{
		{"another transaction's IS", func(t *testing.T, m *Manager) func() {
			other := m.NewHolder(2)
			if err := other.Acquire(TableName(3), IS); err != nil {
				t.Fatal(err)
			}
			return func() { other.ReleaseAll() }
		}},
		{"another transaction's IX", func(t *testing.T, m *Manager) func() {
			other := m.NewHolder(2)
			if err := other.Acquire(TableName(3), IX); err != nil {
				t.Fatal(err)
			}
			return func() { other.ReleaseAll() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachManager(t, Options{}, func(t *testing.T, m *Manager) {
				release := tc.other(t, m)
				base := m.StatsSnapshot()
				h := m.NewHolder(1)
				rows(t, h, 3, 1, 64, X)
				st := m.StatsSnapshot()
				if st.EscalationRefusals != 1 || st.Escalations != 0 || h.Held(TableName(3)) != IX {
					t.Fatalf("64th row: refusals %d, escalations %d, table %v; want 1, 0, IX",
						st.EscalationRefusals, st.Escalations, h.Held(TableName(3)))
				}
				if h.Held(RowName(3, 64)) != X {
					t.Fatal("the refused transaction did not take its row lock")
				}
				if st.Waits != base.Waits || len(m.WaitsForSnapshot()) != 0 {
					t.Fatal("a refusal waited")
				}
				if _, queued := m.OldestWaiterAge(); queued != 0 {
					t.Fatal("a refusal queued")
				}
				rows(t, h, 3, 65, 127, X)
				if got := m.StatsSnapshot().EscalationRefusals; got != 1 {
					t.Fatalf("%d attempts by row 127, want the one at 64", got)
				}
				rows(t, h, 3, 128, 128, X)
				if got := m.StatsSnapshot().EscalationRefusals; got != 2 {
					t.Fatalf("%d attempts by row 128, want 2", got)
				}
				release()
				rows(t, h, 3, 129, 256, X)
				st = m.StatsSnapshot()
				if st.Escalations != 1 || h.Held(TableName(3)) != X {
					t.Fatalf("row 256 on the now idle table: escalations %d, table %v", st.Escalations, h.Held(TableName(3)))
				}
				h.ReleaseAll()
			})
		})
	}
}

// Two bulk writers on one table: each holds IX, each comes to 64 rows
// and more. A blocking escalation makes that a conversion deadlock by
// construction; a try makes it two refusals.
func TestTwoBulkWritersDoNotDeadlock(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		var both, loaded, done sync.WaitGroup
		both.Add(2)
		loaded.Add(2)
		errs := make(chan error, 2)
		for w := uint64(1); w <= 2; w++ {
			done.Add(1)
			go func(w uint64) {
				defer done.Done()
				h := m.NewHolder(w)
				defer h.ReleaseAll()
				err := h.Acquire(TableName(3), IX)
				both.Done()
				both.Wait() // both on the table before either reaches row 64
				for k := uint64(1); k <= 300 && err == nil; k++ {
					if err = h.Acquire(TableName(3), IX); err == nil {
						err = h.Acquire(RowName(3, w<<32|k), X)
					}
				}
				errs <- err
				loaded.Done()
				loaded.Wait() // and still there when the other asks at 256
			}(w)
		}
		done.Wait()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		noWaitTrace(t, m)
		// Each asked at 64, 128 and 256 rows.
		if st := m.StatsSnapshot(); st.Escalations != 0 || st.EscalationRefusals != 6 {
			t.Fatalf("escalations %d, refusals %d; want 0, 6", st.Escalations, st.EscalationRefusals)
		}
	})
}

// Reads escalate to S, which other readers share. A write after that
// takes its row lock under SIX like any other, and its X need is one
// more try at the next doubling — refused, not queued, while a reader
// is on the table.
func TestReadEscalationThenWriteTriesAgain(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h, reader := m.NewHolder(1), m.NewHolder(2)
		if err := reader.Acquire(TableName(4), IS); err != nil { // a reader, compatible with S
			t.Fatal(err)
		}
		rows(t, h, 4, 1, 64, S)
		if h.Held(TableName(4)) != S || m.StatsSnapshot().Escalations != 1 {
			t.Fatalf("64 reads beside an IS: table %v, want S", h.Held(TableName(4)))
		}
		other := m.NewHolder(3)
		if err := other.Acquire(TableName(4), S); err != nil { // still shareable
			t.Fatal(err)
		}
		other.ReleaseAll()
		ops := m.StatsSnapshot().TableOps
		rows(t, h, 4, 65, 100, S)
		if got := m.StatsSnapshot().TableOps; got != ops {
			t.Fatal("reads under the table S visited the lock table")
		}

		rows(t, h, 4, 1001, 1063, X) // 64 + 63 = rows 65..127 the lock table saw
		if h.Held(TableName(4)) != SIX || h.Held(RowName(4, 1001)) != X {
			t.Fatalf("a write under S: table %v, row %v; want SIX and a row X", h.Held(TableName(4)), h.Held(RowName(4, 1001)))
		}
		rows(t, h, 4, 1, 10, S) // SIX still answers reads
		rows(t, h, 4, 1064, 1064, X)
		st := m.StatsSnapshot()
		if st.EscalationRefusals != 1 || h.Held(TableName(4)) != SIX || h.Held(RowName(4, 1064)) != X {
			t.Fatalf("128th row beside a reader: refusals %d, table %v", st.EscalationRefusals, h.Held(TableName(4)))
		}
		noWaitTrace(t, m)
		reader.ReleaseAll()
		rows(t, h, 4, 1065, 1192, X)
		if h.Held(TableName(4)) != X {
			t.Fatalf("256th row on the idle table: table %v, want X", h.Held(TableName(4)))
		}
		h.ReleaseAll()
	})
}

// Rows count per table, and a transaction that never announced itself
// at the table has no lock of its own to convert.
func TestEscalationPerTable(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		rows(t, h, 10, 1, 63, X)
		rows(t, h, 11, 1, 63, X)
		if m.StatsSnapshot().Escalations != 0 {
			t.Fatal("escalated with 63 rows on each of two tables")
		}
		rows(t, h, 10, 64, 64, X)
		if h.Held(TableName(10)) != X || h.Held(TableName(11)) != IX {
			t.Fatalf("tables held %v / %v, want X / IX", h.Held(TableName(10)), h.Held(TableName(11)))
		}
		for k := uint64(1); k <= 64; k++ { // rows without the intent lock
			if err := h.Acquire(RowName(12, k), X); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.StatsSnapshot(); st.Escalations != 1 || st.EscalationRefusals != 1 || h.Held(TableName(12)) != None {
			t.Fatalf("rows without a table lock: escalations %d, refusals %d, table %v", st.Escalations, st.EscalationRefusals, h.Held(TableName(12)))
		}
		h.ReleaseAll()
	})
}

// A stream of bulk transactions that cannot escalate keeps the lock
// set it grew: the next batch does not regrow it from empty. One
// partition only: under 16 the rows' heads churn through the
// partitions' maps, which then allocate now and again whoever holds
// the rows.
func TestContestedBulkHolderAllocatesNothing(t *testing.T) {
	m := NewManager(Options{})
	if err := m.NewHolder(2).Acquire(TableName(3), IX); err != nil {
		t.Fatal(err)
	}
	h := m.NewHolder(1)
	txn := uint64(10)
	batch := func() {
		txn++
		h.Reset(txn)
		for k := uint64(1); k <= 200; k++ {
			if h.Acquire(TableName(3), IX) != nil || h.Acquire(RowName(3, k), X) != nil {
				t.Fatal("acquire failed")
			}
		}
		if names := h.ReleaseAll(); len(names) != 201 {
			t.Fatalf("released %d", len(names))
		}
	}
	batch()
	n := testing.AllocsPerRun(20, batch)
	if invariant.Enabled {
		n = 0 // the hydradebug assertions allocate
	}
	if n != 0 {
		t.Fatalf("a contested 200-row batch allocates %.1f times, want 0", n)
	}
	// The first small transaction to follow starts small again.
	h.Reset(1000)
	rows(t, h, 3, 1, 2, X)
	h.ReleaseAll()
	if h.big || cap(h.names) > holderRetainCap {
		t.Fatalf("a small transaction kept the bulk one's footprint (scratch cap %d)", cap(h.names))
	}
}
