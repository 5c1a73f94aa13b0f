package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/lock"
	"hydra/internal/rng"
)

// TestIsolationHoldsAcrossEscalation checks what a lock is for while
// transactions of every size trade row locks for table locks and are
// refused: eight workers run transactions of 1 to 200 operations over
// two tables under every Intent that takes locks (plain 2PL, read-only
// IS/S, and optimistic without MVCC — 2PL again), and every operation
// is checked against a table the test keeps beside the engine: who has written each key and not yet finished, and the value
// last committed under it. No two live transactions may both have
// written a key, and no read may return anything but the committed
// value (or the reader's own write) — whether the lock that protects
// it is the row's, a table lock asked for, or one escalated to. Meant
// for -race as well: holders, the last-table memory and the row counts
// are all exercised while other goroutines are on the same lock heads.
func TestIsolationHoldsAcrossEscalation(t *testing.T) {
	const (
		tables  = 2
		keys    = 1024
		workers = 8
	)
	txns := 120
	if testing.Short() {
		txns = 30
	}
	e := memEngine(t, Scalable())
	var tbls [tables]*Table
	for i := range tbls {
		tbl, err := e.CreateTable([]string{"left", "right"}[i])
		if err != nil {
			t.Fatal(err)
		}
		tbls[i] = tbl
		if err := e.Exec(func(tx *Txn) error {
			for k := uint64(0); k < keys; k++ {
				if err := tx.Insert(tbl, k, make([]byte, 8)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// owner: the live transaction that has written the key (0: none);
	// committed: the value the last committed writer left.
	var owner, committed [tables][keys]atomic.Uint64

	type ref struct {
		table int
		key   uint64
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*6151 + 29)
			value := make([]byte, 8)
			for i := 0; i < txns; i++ {
				intent := []Intent{{}, {ReadOnly: true}, {Optimistic: true}}[r.Intn(3)]
				start := time.Now()
				tx := e.Begin(intent)
				me := tx.ID()
				wrote := map[ref]uint64{}
				failed := false
				for op, n := 0, 1+r.Intn(200); op < n && !failed; op++ {
					at := ref{r.Intn(tables), uint64(r.Intn(keys))}
					var err error
					if intent.ReadOnly || r.Bool(0.4) {
						var v []byte
						if v, err = tx.Read(tbls[at.table], at.key); err == nil {
							want, mine := wrote[at]
							if !mine {
								want = committed[at.table][at.key].Load()
							}
							if o := owner[at.table][at.key].Load(); o != 0 && o != me {
								t.Errorf("txn %d read %v, which live txn %d has written", me, at, o)
							}
							if got := binary.LittleEndian.Uint64(v); got != want {
								t.Errorf("txn %d read %#x under %v, committed is %#x", me, got, at, want)
							}
						}
					} else {
						val := me<<16 | uint64(op)
						binary.LittleEndian.PutUint64(value, val)
						if err = tx.Update(tbls[at.table], at.key, value); err == nil {
							if o := owner[at.table][at.key].Swap(me); o != 0 && o != me {
								t.Errorf("txn %d wrote %v, which live txn %d has written", me, at, o)
							}
							wrote[at] = val
						}
					}
					if err != nil {
						if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, lock.ErrTimeout) {
							t.Errorf("worker %d txn %d: %v", w, i, err)
						}
						failed = true
					}
				}
				// The bookkeeping changes hands while the locks are held.
				commit := !failed && r.Bool(0.85)
				for at, val := range wrote {
					if commit {
						committed[at.table][at.key].Store(val)
					}
					owner[at.table][at.key].Store(0)
				}
				if !commit {
					if err := tx.Abort(); err != nil {
						t.Errorf("worker %d txn %d: abort: %v", w, i, err)
					}
				} else if err := tx.Commit(); err != nil {
					t.Errorf("worker %d txn %d: commit: %v", w, i, err)
					return
				}
				// Think for a few transactions' worth of time, however
				// fast the host: two workers or so are busy at a time,
				// so a transaction is alone on a table about as often as
				// it is not, and both outcomes of an attempt occur.
				time.Sleep(time.Duration(r.Intn(8)) * time.Since(start))
			}
		}(w)
	}
	wg.Wait()

	st := e.StatsSnapshot().Lock
	t.Logf("escalations %d, refusals %d, rows answered by a table lock %d, deadlocks %d, timeouts %d",
		st.Escalations, st.EscalationRefusals, st.EscalatedAcqs, st.Deadlocks, st.Timeouts)
	if st.Escalations <= tables || st.EscalationRefusals == 0 || st.EscalatedAcqs == 0 {
		t.Error("the run never drove both outcomes of an escalation attempt (the preload escalates once a table)")
	}
	// Everything is released, and the table holds what was committed.
	if err := e.Exec(func(tx *Txn) error {
		for i, tbl := range tbls {
			if err := tx.Scan(tbl, 0, keys, func(k uint64, v []byte) bool {
				if got, want := binary.LittleEndian.Uint64(v), committed[i][k].Load(); got != want {
					t.Errorf("table %d key %d holds %#x, committed is %#x", i, k, got, want)
				}
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
