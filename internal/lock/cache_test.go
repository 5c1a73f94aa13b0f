package lock

import (
	"testing"

	"hydra/internal/invariant"
)

// A request the transaction's own lock set covers is answered from it:
// counted as a request, not as a table visit, and the held mode stays
// the supremum.
func TestCoveredRequestNeverReachesTheTable(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		tbl, row := TableName(1), RowName(1, 7)
		// The wire SET of a new row: Update (miss) then Insert, each asking
		// for the table IX and the row X.
		for i := 0; i < 2; i++ {
			if err := h.Acquire(tbl, IX); err != nil {
				t.Fatal(err)
			}
			if err := h.Acquire(row, X); err != nil {
				t.Fatal(err)
			}
		}
		// Weaker modes are covered too.
		for _, req := range []struct {
			n  Name
			md Mode
		}{{tbl, IS}, {row, S}, {row, IS}} {
			if err := h.Acquire(req.n, req.md); err != nil {
				t.Fatal(err)
			}
		}
		st := m.StatsSnapshot()
		if want := 1 + intentOps(m); st.Acquires != 7 || st.TableOps != want {
			t.Fatalf("acquires = %d, table ops = %d; want 7 requests, %d visits", st.Acquires, st.TableOps, want)
		}
		if h.Held(tbl) != IX || h.Held(row) != X {
			t.Fatalf("held %v / %v, want IX / X", h.Held(tbl), h.Held(row))
		}

		// A stronger mode is not covered: the upgrade visits the table.
		if err := h.Acquire(tbl, S); err != nil { // IX + S = SIX
			t.Fatal(err)
		}
		st = m.StatsSnapshot()
		if st.TableOps != 2+intentOps(m) || st.Upgrades != 1 || h.Held(tbl) != SIX {
			t.Fatalf("upgrade: table ops %d, upgrades %d, held %v", st.TableOps, st.Upgrades, h.Held(tbl))
		}

		// The cache dies with the transaction: after release another
		// transaction gets the row, and the recycled holder asks the table
		// again.
		h.ReleaseAll()
		h2 := m.NewHolder(2)
		if err := h2.Acquire(row, X); err != nil {
			t.Fatal(err)
		}
		h2.ReleaseAll()
		h.Reset(3)
		if err := h.Acquire(row, X); err != nil {
			t.Fatal(err)
		}
		if want := 4 + intentOps(m); m.StatsSnapshot().TableOps != want {
			t.Fatalf("table ops = %d after release and re-acquire, want %d", m.StatsSnapshot().TableOps, want)
		}
		h.ReleaseAll()
	})
}

// Escalation counts the rows a transaction holds, not the requests it
// makes: one row asked for N times, or read and then written, is one
// row.
func TestEscalationCountsDistinctRows(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		if err := h.Acquire(TableName(3), IX); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := h.Acquire(RowName(3, 1), X); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(10); k < 72; k++ { // read, then write: S then X on the same row
			if err := h.Acquire(RowName(3, k), S); err != nil {
				t.Fatal(err)
			}
			if err := h.Acquire(RowName(3, k), X); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.StatsSnapshot(); st.Escalations+st.EscalationRefusals != 0 {
			t.Fatal("63 distinct rows, 324 requests: an escalation was tried")
		}
		if err := h.Acquire(RowName(3, 99), X); err != nil {
			t.Fatal(err)
		}
		if h.Held(TableName(3)) != X {
			t.Fatal("the 64th distinct row did not escalate")
		}
		h.ReleaseAll()
	})
}

// Steady state, a transaction's lock traffic allocates nothing: grants
// are values in a recycled head's map and the released set comes back
// in the holder's scratch.
func TestAcquireReleaseAllocatesNothing(t *testing.T) {
	eachManager(t, Options{}, func(t *testing.T, m *Manager) {
		h := m.NewHolder(1)
		txn := uint64(1)
		cycle := func() {
			txn++
			h.Reset(txn)
			if err := h.Acquire(TableName(1), IX); err != nil {
				t.Fatal(err)
			}
			if err := h.Acquire(RowName(1, 42), X); err != nil {
				t.Fatal(err)
			}
			if names := h.ReleaseAll(); len(names) != 2 {
				t.Fatalf("released %v", names)
			}
		}
		cycle() // first use grows the maps, the heads and the scratch
		n := testing.AllocsPerRun(200, cycle)
		if invariant.Enabled {
			n = 0 // the hydradebug assertions allocate
		}
		if n != 0 {
			t.Fatalf("acquire/acquire/release allocates %.1f times per transaction, want 0", n)
		}
	})
}
