package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/rng"
)

// An IS or IX on the scalable manager is a count on the table's word:
// no lock-table visit, no head, and the holder's set notes it like a
// grant. An S request then drains the counts and takes the head.
func TestIntentsAreCounted(t *testing.T) {
	m := NewManager(Options{Partitions: 16})
	r, w := m.NewHolder(1), m.NewHolder(2)
	if err := r.Acquire(TableName(5), IS); err != nil {
		t.Fatal(err)
	}
	if err := w.Acquire(TableName(5), IX); err != nil {
		t.Fatal(err)
	}
	st := m.StatsSnapshot()
	if st.TableOps != 0 || st.IntentCounts != 2 || r.Held(TableName(5)) != IS || w.Held(TableName(5)) != IX {
		t.Fatalf("table ops %d, intent counts %d, held %v / %v; want 0, 2, IS / IX",
			st.TableOps, st.IntentCounts, r.Held(TableName(5)), w.Held(TableName(5)))
	}
	assertTablesEmpty(t, m)
	if got := m.word(TableName(5)).Load(); got != countIS+countIX {
		t.Fatalf("word %#x, want one IS and one IX", got)
	}

	// The reader's IS→IX upgrade moves its one count.
	if err := r.Acquire(TableName(5), IX); err != nil {
		t.Fatal(err)
	}
	if got := m.word(TableName(5)).Load(); got != 2*countIX {
		t.Fatalf("word %#x after IS→IX, want two IX", got)
	}
	r.ReleaseAll()

	// A Scan's S waits for the writer's count, and is admitted by its drop.
	s := m.NewHolder(3)
	got := make(chan error, 1)
	go func() { got <- s.Acquire(TableName(5), S) }()
	waitQueueLen(t, m, TableName(5), 1)
	if m.word(TableName(5)).Load()&headBit == 0 {
		t.Fatal("head bit clear under a waiting S")
	}
	// While the bit is set an intent goes to the head, where it queues
	// behind the S. It waits on an anonymous waiter, but it holds
	// nothing, so it closes no cycle and is no victim: it is admitted
	// with the S once the writer's count drops.
	late := m.NewHolder(4)
	lateErr := make(chan error, 1)
	go func() { lateErr <- late.Acquire(TableName(5), IS) }()
	waitQueueLen(t, m, TableName(5), 2)
	w.ReleaseAll()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if err := <-lateErr; err != nil {
		t.Fatalf("an intent behind a draining S: %v, want its grant", err)
	}
	late.ReleaseAll()
	if s.Held(TableName(5)) != S {
		t.Fatalf("scan holds %v, want S", s.Held(TableName(5)))
	}
	s.ReleaseAll()
	assertTablesEmpty(t, m)
	if got := m.word(TableName(5)).Load(); got != 0 {
		t.Fatalf("word %#x after every release, want 0", got)
	}
}

// oneVictim runs two requests that close a cycle — first, and once it
// queues on firstOn, second — and requires that exactly one of them is
// the deadlock victim, long before the lock timeout. The victim
// aborts, and the survivor is granted after it.
func oneVictim(t *testing.T, m *Manager, a, b *Holder, first func() error, firstOn Name, second func() error) {
	t.Helper()
	start := time.Now()
	errs := make(chan error, 2)
	run := func(h *Holder, req func() error) {
		err := req()
		if err != nil {
			h.ReleaseAll() // the victim aborts
		}
		errs <- err
	}
	go run(a, first)
	waitQueueLen(t, m, firstOn, 1)
	go run(b, second)
	var victims int
	for range 2 {
		switch err := <-errs; {
		case errors.Is(err, ErrDeadlock):
			victims++
		case err != nil:
			t.Fatal(err)
		}
	}
	if victims != 1 {
		t.Fatalf("%d deadlock victims, want 1", victims)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the cycle took %v to break", d)
	}
	a.ReleaseAll()
	b.ReleaseAll()
	assertTablesEmpty(t, m)
}

// A Scan's transaction holds a row and waits on a writer's counted IX,
// and the writer waits for that row. The scan's edge of the cycle
// through the count has no name, so the conservative rule must find
// it, in either order, long before the lock timeout.
func TestScanDrainingACountedWriterDeadlocks(t *testing.T) {
	for _, scanFirst := range []bool{true, false} {
		name := "writer waits first"
		if scanFirst {
			name = "scan waits first"
		}
		t.Run(name, func(t *testing.T) {
			eachManager(t, Options{WaitTimeout: 2 * time.Second}, func(t *testing.T, m *Manager) {
				tbl, row, own := TableName(5), RowName(5, 1), RowName(5, 2)
				scan, writer := m.NewHolder(1), m.NewHolder(2)
				for _, err := range []error{
					scan.Acquire(tbl, IS), scan.Acquire(row, S),
					writer.Acquire(tbl, IX), writer.Acquire(own, X),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
				scanS := func() error { return scan.Acquire(tbl, S) }
				writeX := func() error { return writer.Acquire(row, X) }
				if scanFirst {
					oneVictim(t, m, scan, writer, scanS, tbl, writeX)
				} else {
					oneVictim(t, m, writer, scan, writeX, row, scanS)
				}
			})
		})
	}
}

// Cycles made of counts alone: two writers, each holding a counted IX,
// ask for an S on the table both write (each drains the other's
// count), or each scans a different table of the two both write. No
// edge of either cycle has a name.
func TestCountedWritersThatScanDeadlock(t *testing.T) {
	a, b := TableName(5), TableName(6)
	for _, tc := range []struct {
		name   string
		second Name // the table the second writer scans; the first scans a
	}{{"one table", a}, {"crossed tables", b}} {
		t.Run(tc.name, func(t *testing.T) {
			eachManager(t, Options{WaitTimeout: 2 * time.Second}, func(t *testing.T, m *Manager) {
				w1, w2 := m.NewHolder(1), m.NewHolder(2)
				for _, h := range []*Holder{w1, w2} {
					for _, tbl := range []Name{a, b} {
						if err := h.Acquire(tbl, IX); err != nil {
							t.Fatal(err)
						}
					}
				}
				oneVictim(t, m, w1, w2,
					func() error { return w1.Acquire(a, S) }, a,
					func() error { return w2.Acquire(tc.second, S) })
			})
		})
	}
}

// An upgrader that drains a count goes ahead of a waiter already
// queued, which then waits on it by queue order alone, with no edge
// that names it: u (IS counted, asks X) jumps p (asks IX behind a
// Scan's S), h (IS counted) waits for p's row, and u waits for h's
// count. Once the Scan leaves, nobody moves, so the cycle must be
// broken when it forms, not at the lock timeout.
func TestUpgraderAheadOfAQueueDeadlocks(t *testing.T) {
	eachManager(t, Options{WaitTimeout: 2 * time.Second}, func(t *testing.T, m *Manager) {
		a, b, row := TableName(5), TableName(6), RowName(6, 1)
		scan, u, h, p := m.NewHolder(1), m.NewHolder(2), m.NewHolder(3), m.NewHolder(4)
		for _, err := range []error{
			u.Acquire(a, IS), h.Acquire(a, IS), h.Acquire(b, IX),
			p.Acquire(b, IX), p.Acquire(row, X), scan.Acquire(a, S),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		errs := make(chan error, 3)
		run := func(x *Holder, req func() error) {
			err := req()
			x.ReleaseAll() // the victim aborts, a survivor commits
			errs <- err
		}
		// A victim never enters the queue, so count the waits begun.
		waits := func(n uint64) {
			for deadline := time.Now().Add(time.Second); m.StatsSnapshot().Waits < n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d waits begun, want %d", m.StatsSnapshot().Waits, n)
				}
			}
		}
		go run(p, func() error { return p.Acquire(a, IX) })
		waits(1)
		go run(u, func() error { return u.Acquire(a, X) })
		waits(2)
		go run(h, func() error { return h.Acquire(row, X) })
		waits(3)
		scan.ReleaseAll()
		var victims int
		for range 3 {
			switch err := <-errs; {
			case errors.Is(err, ErrDeadlock):
				victims++
			case err != nil:
				t.Fatal(err)
			}
		}
		if victims != 1 {
			t.Fatalf("%d deadlock victims, want 1", victims)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("the cycle took %v to break", d)
		}
		assertTablesEmpty(t, m)
	})
}

// A transaction that holds a table intent — a count on the table's
// word, or under one partition a grant at its head — and asks for S or
// X on that table (a scan, or a table X after a write) upgrades its own
// lock: it never waits on itself, only on other transactions. Alone it
// gets S and then X at once; another transaction's IX blocks the X
// until it is released.
func TestUpgradeWaitsOnlyForOtherIntents(t *testing.T) {
	eachManager(t, Options{WaitTimeout: 2 * time.Second}, func(t *testing.T, m *Manager) {
		tbl := TableName(12)
		h, other := m.NewHolder(1), m.NewHolder(2)
		if err := h.Acquire(tbl, IX); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for _, md := range []Mode{S, X} {
			if err := h.Acquire(tbl, md); err != nil {
				t.Fatal(err)
			}
		}
		if d, waits := time.Since(start), m.StatsSnapshot().Waits; d > time.Second || waits != 0 || h.Held(tbl) != X {
			t.Fatalf("alone after %v and %d waits: table %v; want X at once", d, waits, h.Held(tbl))
		}
		h.ReleaseAll()

		if err := h.Acquire(tbl, IX); err != nil {
			t.Fatal(err)
		}
		if err := other.Acquire(tbl, IX); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() { got <- h.Acquire(tbl, X) }()
		waitQueueLen(t, m, tbl, 1)
		select {
		case err := <-got:
			t.Fatalf("X granted past another transaction's IX: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		other.ReleaseAll()
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		h.ReleaseAll()
		assertTablesEmpty(t, m)
	})
}

// tableOracle is what TestIntentCounterUnderRaces holds the manager
// to: every table mode a transaction holds is registered after its
// grant and dropped before its release, so the oracle's view is always
// a subset of the manager's, and two incompatible modes in it at once
// are two the manager granted at once.
type tableOracle struct {
	mu   sync.Mutex
	held map[uint32]map[uint64]Mode // table -> txn -> mode
}

func (o *tableOracle) register(t *testing.T, table uint32, txn uint64, mode Mode) {
	o.mu.Lock()
	defer o.mu.Unlock()
	on := o.held[table]
	if on == nil {
		on = map[uint64]Mode{}
		o.held[table] = on
	}
	for other, md := range on {
		if other != txn && !Compatible(md, mode) {
			t.Errorf("table %d: txn %d holds %v while txn %d holds %v", table, txn, mode, other, md)
		}
	}
	on[txn] = mode
}

func (o *tableOracle) drop(txn uint64, tables []uint32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, tb := range tables {
		delete(o.held[tb], txn)
	}
}

// TestIntentCounterUnderRaces runs IX writers, IS readers, an
// escalating 500-row loader, a Scan's S and new tables (as CREATE TABLE
// makes them, some past the ids that have an intent word, whose intents
// are head grants) against each other, and requires that no table ever
// holds incompatible modes at once, counted and granted together. Meant
// for -race and hydradebug: the words, the head bit's set and clear
// under the partition mutex and the drop that settles a head all race
// here.
func TestIntentCounterUnderRaces(t *testing.T) {
	eachManager(t, Options{WaitTimeout: 10 * time.Second}, func(t *testing.T, m *Manager) {
		o := &tableOracle{held: map[uint32]map[uint64]Mode{}}
		// The tables so far: 1 and 2, then ids on both sides of the
		// last that has a word.
		var tables atomic.Uint32
		tables.Store(2)
		id := func(i uint32) uint32 {
			if i <= 2 {
				return i
			}
			return countedTables - 20 + i
		}
		const iters = 300
		// Every cycle is found at once, so a timeout is a missed one.
		victim := func(err error) bool { return errors.Is(err, ErrDeadlock) }
		// txn runs one transaction: the table lock, then rows rows in
		// rowMode, re-registering the table mode after each row (an
		// escalation changes it), then releases.
		txn := func(h *Holder, id uint64, table uint32, tableMode Mode, rows []uint64, rowMode Mode) {
			h.Reset(id)
			defer func() {
				o.drop(id, []uint32{table})
				h.ReleaseAll()
			}()
			if err := h.Acquire(TableName(table), tableMode); err != nil {
				if !victim(err) {
					t.Error(err)
				}
				return
			}
			o.register(t, table, id, h.Held(TableName(table)))
			for _, k := range rows {
				if err := h.Acquire(RowName(table, k), rowMode); err != nil {
					if !victim(err) {
						t.Error(err)
					}
					return
				}
				o.register(t, table, id, h.Held(TableName(table)))
			}
		}
		var wg sync.WaitGroup
		worker := func(w int, run func(r *rng.Source, h *Holder, id uint64)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rng.New(uint64(w)*7919 + 11)
				h := m.NewHolder(0)
				for i := 0; i < iters; i++ {
					run(r, h, uint64(w+1)<<32|uint64(i+1))
				}
			}()
		}
		pick := func(r *rng.Source) uint32 { return id(1 + uint32(r.Intn(int(tables.Load())))) }
		keys := func(r *rng.Source, n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = uint64(r.Intn(16))
			}
			return ks
		}
		for w := 0; w < 3; w++ { // IX writers
			worker(w, func(r *rng.Source, h *Holder, id uint64) {
				txn(h, id, pick(r), IX, keys(r, 1+r.Intn(3)), X)
			})
		}
		for w := 3; w < 5; w++ { // IS readers
			worker(w, func(r *rng.Source, h *Holder, id uint64) {
				txn(h, id, pick(r), IS, keys(r, 1+r.Intn(3)), S)
			})
		}
		worker(5, func(r *rng.Source, h *Holder, id uint64) { // the Scan
			txn(h, id, pick(r), S, nil, S)
		})
		worker(6, func(r *rng.Source, h *Holder, id uint64) { // the loader, one batch in ten
			if r.Intn(10) != 0 {
				return
			}
			rows := make([]uint64, 500)
			for k := range rows {
				rows[k] = 1<<20 | uint64(k)
			}
			txn(h, id, pick(r), IX, rows, X)
		})
		wg.Add(1)
		go func() { // CREATE TABLE
			defer wg.Done()
			for tables.Load() < 40 {
				time.Sleep(200 * time.Microsecond)
				tables.Add(1)
			}
		}()
		wg.Wait()

		assertTablesEmpty(t, m)
		if m.words != nil {
			for i := range m.words {
				if w := m.words[i].Load(); w != 0 {
					t.Errorf("table %d's word is %#x after every release", i, w)
				}
			}
			if m.StatsSnapshot().IntentCounts == 0 {
				t.Error("no intent was counted")
			}
		}
	})
}
