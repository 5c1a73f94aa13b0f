package core

import (
	"maps"
	"math"
	"runtime"
	"testing"

	"hydra/internal/obs"
	"hydra/internal/wal"
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
// how many of those were the flusher's own 1 ms tick. Both ends of the
// window are read while no flush is in flight (quiet), so each flush
// the window counts entered all of its locks inside it.
func census(t *testing.T, e *Engine, n int, op func(i int)) (per map[string]float64, flushes, ticks uint64) {
	st, before := quiet(t, e)
	for i := 0; i < n; i++ {
		op(i)
	}
	st2, after := quiet(t, e)
	per = map[string]float64{}
	for tier, ops := range after {
		if d := ops - before[tier]; d > 0 {
			per[tier] = float64(d) / float64(n)
		}
	}
	return per, st2.Flushes - st.Flushes, st2.FlushesTick - st.FlushesTick
}

// quiet reads the log's counters and the tier counts at an instant no
// flush is part-way through its locks. The log counts a flush only
// after it entered every lock it takes, and counts its write before the
// first: the two counts equal before the tier read, and no new write
// after it, mean no flush was in flight across it.
func quiet(t *testing.T, e *Engine) (wal.Stats, map[string]uint64) {
	for i := 0; i < 100_000; i++ {
		st := e.log.StatsSnapshot()
		ops := tierOps()
		if st2 := e.log.StatsSnapshot(); st.FlushWrites == st.Flushes && st2.FlushWrites == st.FlushWrites {
			return st, ops
		}
		runtime.Gosched()
	}
	t.Fatal("the log never stopped flushing")
	return wal.Stats{}, nil
}

// near compares two per-transaction entry counts, each a count divided
// by the number of transactions.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAutocommitCriticalSections pins the ranked locks an autocommit
// transaction enters under Scalable() on a file log, per tier, in every
// mode: the count of critical sections the keynote's argument is about.
// Every lock these paths take is ranked, so nothing is left uncounted.
// An update enters 19.82, a locked GET 12.82 and a snapshot GET 9.82,
// and no update enters a lock of its own transaction; the crabbing index
// takes no tree lock, and a log record completes its copy into the log
// buffer without one. A transaction that pins a snapshot or logs claims
// a live-registry slot by CAS and releases it by store, so joining and
// leaving enter no lock; nor does a version-installing commit — the log
// stamps its versions. The Conventional() rows pin the baseline E9
// knocks the constructs out to: one tree-lock entry an operation (its
// Coarse index), one frame latch (the heap page's; a Coarse index takes
// none).
// The lock-tier registry is process-global, so the test must not run in
// parallel with others.
func TestAutocommitCriticalSections(t *testing.T) {
	read := map[string]float64{"frame_latch": 2.94, "lock_part": 4, "pool_shard": 5.88}
	update := with(read, map[string]float64{"wal_device": 2, "wal_log": 3, "wal_wait": 2})
	coarse := map[string]float64{"frame_latch": 1, "tree": 1}
	for _, c := range []struct {
		name   string
		cfg    func() Config
		mvcc   bool
		intent Intent
		write  bool
		want   map[string]float64
	}{
		{"update", Scalable, false, Intent{}, true, update},
		{"locked GET", Scalable, false, Intent{}, false, read},
		// No lock_part: the snapshot read bypasses the lock manager.
		{"snapshot GET", Scalable, true, Intent{ReadOnly: true}, false, map[string]float64{
			"frame_latch": 2.94, "mvcc_shard": 1, "pool_shard": 5.88}},
		{"-mvcc 2PL update", Scalable, true, Intent{}, true, with(update, map[string]float64{"mvcc_shard": 1})},
		// The SI body reads the row through the index and the heap, and
		// the commit writes it through both again. The commit's own pin
		// was the oldest, so leaving sweeps the version store; only the
		// shard holding the row's chain has one to sweep: mvcc_shard 4
		// (the read's resolve, the validation, the install, the sweep).
		{"SI update", Scalable, true, Intent{Optimistic: true}, true, with(update, map[string]float64{
			"frame_latch": 5.88, "mvcc_shard": 4, "pool_shard": 11.76})},
		{"Conventional update", Conventional, false, Intent{}, true, with(update, coarse)},
		{"Conventional locked GET", Conventional, false, Intent{}, false, with(read, coarse)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.Dir, cfg.MVCC = t.TempDir(), c.mvcc
			got := criticalSections(t, cfg, c.intent, c.write)
			if !maps.EqualFunc(got, c.want, near) {
				t.Errorf("ranked-lock entries per transaction %v, want %v", got, c.want)
			}
		})
	}
}

// with returns a copy of m with the entries of over set.
func with(m, over map[string]float64) map[string]float64 {
	m = maps.Clone(m)
	maps.Copy(m, over)
	return m
}

// criticalSections loads 1000 rows into a fresh engine and returns the
// ranked-lock entries per autocommit transaction of one primary-key
// update (write) or GET, begun with intent. One transaction runs before
// the window: under -mvcc the load leaves a chain per row, and the first
// SI commit's sweep visits every shard to prune them.
func criticalSections(t *testing.T, cfg Config, intent Intent, write bool) map[string]float64 {
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
	op := func(i int) {
		if err := e.Exec(func(tx *Txn) error {
			if write {
				return tx.Update(tbl, key(i), val)
			}
			_, err := tx.Read(tbl, key(i))
			return err
		}, intent); err != nil {
			t.Fatal(err)
		}
	}
	op(n)
	if !write {
		// Nothing left for a tick to flush: the GETs log nothing.
		if err := e.log.Flush(); err != nil {
			t.Fatal(err)
		}
		per, _, _ := census(t, e, n, op)
		return per
	}
	// A window the flusher's tick entered is run again, up to three
	// times: a tick flush is the flusher's, not a transaction's.
	var per map[string]float64
	var flushes, ticks uint64
	for attempt := 0; attempt < 3 && (attempt == 0 || ticks > 0); attempt++ {
		per, flushes, ticks = census(t, e, n, op)
	}
	if ticks > 0 {
		// A slow build (-race, hydradebug) under load ticks in every
		// window. Each flush enters the device twice (write, sync), the
		// log mutex once and the waiter mutex once; each update inserts
		// two records (its data record and its commit) and parks at most once for its commit.
		// The entry counts are compared whole, not per update.
		t.Logf("every window saw a tick flush: %d flushes, %d of them ticks, for %d updates", flushes, ticks, n)
		entries := func(tier string) uint64 { return uint64(math.Round(per[tier] * n)) }
		if w := entries("wal_wait"); entries("wal_device") != 2*flushes || entries("wal_log") != 2*n+flushes || w < flushes || w > flushes+n {
			t.Errorf("wal tiers %v do not follow from %d flushes for %d updates", per, flushes, n)
		}
		// Checked; the other tiers must still match exactly.
		maps.Copy(per, map[string]float64{"wal_device": 2, "wal_log": 3, "wal_wait": 2})
	}
	return per
}
