package core

import (
	"maps"
	"math"
	"testing"

	"hydra/internal/obs"
)

// tierOps returns each latch tier's acquisition count so far.
func tierOps() map[string]uint64 {
	m := map[string]uint64{}
	for _, s := range obs.LatchSnapshot() {
		m[s.Tier] = s.Ops
	}
	return m
}

// census runs op n times on this goroutine and returns the ranked-lock
// entries per op, per tier, with the log flushes the window saw, and
// how many of those were the flusher's own 1 ms tick.
func census(e *Engine, n int, op func(i int)) (per map[string]float64, flushes, ticks uint64) {
	st, before := e.log.StatsSnapshot(), tierOps()
	for i := 0; i < n; i++ {
		op(i)
	}
	after, st2 := tierOps(), e.log.StatsSnapshot()
	per = map[string]float64{}
	for tier, ops := range after {
		if d := ops - before[tier]; d > 0 {
			per[tier] = float64(d) / float64(n)
		}
	}
	return per, st2.Flushes - st.Flushes, st2.FlushesTick - st.FlushesTick
}

// near compares two per-transaction entry counts, each a count divided
// by the number of transactions.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAutocommitCriticalSections pins the ranked locks an autocommit
// transaction enters under Scalable() on a file log, per tier: the
// count of critical sections the keynote's argument is about. An update
// enters 22.82, a locked GET 13.82, and no update enters a lock of its
// own transaction. The lock-tier registry is process-global, so the
// test must not run in parallel with others.
func TestAutocommitCriticalSections(t *testing.T) {
	cfg := Scalable()
	cfg.Dir = t.TempDir()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < 1000; k++ {
			if err := tx.Insert(tbl, k, val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	key := func(i int) uint64 { return uint64(i * 7 % 1000) }
	const n = 400
	// A window the flusher's tick entered is run again, up to three
	// times: a tick flush is the flusher's, not a transaction's.
	var update map[string]float64
	var flushes, ticks uint64
	for attempt := 0; attempt < 3 && (attempt == 0 || ticks > 0); attempt++ {
		update, flushes, ticks = census(e, n, func(i int) {
			if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, key(i), val) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Nothing left for a tick to flush: the GETs log nothing.
	if err := e.log.Flush(); err != nil {
		t.Fatal(err)
	}
	get, _, _ := census(e, n, func(i int) {
		if err := e.Exec(func(tx *Txn) error { _, err := tx.Read(tbl, key(i)); return err }); err != nil {
			t.Fatal(err)
		}
	})
	if ticks > 0 {
		// A slow build (-race, hydradebug) under load ticks in every
		// window. Each flush enters the device twice (write, sync), the
		// log mutex once and the waiter mutex once; each update inserts
		// four records and parks at most once for its commit.
		f := float64(flushes) / n
		t.Logf("every window saw a tick flush: %d flushes, %d of them ticks, for %d updates", flushes, ticks, n)
		if w := update["wal_wait"]; !near(update["wal_device"], 2*f) || !near(update["wal_log"], 4+f) || w < f || w > f+1 {
			t.Errorf("update: wal tiers %v do not follow from %d flushes for %d updates", update, flushes, n)
		}
		// Checked; the other tiers must still match exactly.
		maps.Copy(update, map[string]float64{"wal_device": 2, "wal_log": 5, "wal_wait": 2})
	}
	read := map[string]float64{"frame_latch": 2.94, "lock_part": 4, "pool_shard": 5.88, "tree": 1}
	write := maps.Clone(read)
	maps.Copy(write, map[string]float64{"wal_device": 2, "wal_log": 5, "wal_wait": 2})
	for _, c := range []struct {
		name      string
		got, want map[string]float64
	}{{"update", update, write}, {"GET", get, read}} {
		if !maps.EqualFunc(c.got, c.want, near) {
			t.Errorf("%s: ranked-lock entries per transaction %v, want %v", c.name, c.got, c.want)
		}
	}
}
