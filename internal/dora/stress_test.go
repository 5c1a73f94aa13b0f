package dora

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/core"
)

// TestStressMixedPaths mixes fast-path and cross-partition
// transactions, the latter in both phase orders, over few executors
// with tiny inbox depths, so queue-full blocking, claims queued behind
// claims, and pooled-context recycling all fire under load (run with
// -race). Every transaction must commit, so the final counter values
// and the path counters must equal what was run: a lost update, a
// phantom commit or a failed Exec all show.
func TestStressMixedPaths(t *testing.T) {
	c, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable("t")
	d := New(c, Options{Executors: 2, QueueDepth: 4})
	defer d.Close()
	k1, k2 := crossKeys(t, d, tbl)
	for _, k := range []uint64{k1, k2} {
		k := k
		if err := d.ExecSingle(Action{Table: tbl, Key: k, Fn: func(tx *core.Txn) error {
			return tx.Insert(tbl, k, enc(0))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	inc := func(key uint64) func(tx *core.Txn) error {
		return func(tx *core.Txn) error {
			v, err := tx.ReadForUpdate(tbl, key)
			if err != nil {
				return err
			}
			return tx.Update(tbl, key, enc(dec(v)+1))
		}
	}
	const workers, iters = 6, 50
	var singles, crosses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				switch (w + i) % 3 {
				case 0: // single-partition fast path on the hot key
					err = d.ExecSingle(Action{Table: tbl, Key: k1, Fn: inc(k1)})
					singles.Add(1)
				case 1: // one-phase cross-partition: both keys at once
					err = d.Exec([]Phase{{
						{Table: tbl, Key: k1, Fn: inc(k1)},
						{Table: tbl, Key: k2, Fn: inc(k2)},
					}})
					crosses.Add(1)
				case 2: // two-phase, the opposite key order
					err = d.Exec([]Phase{
						{{Table: tbl, Key: k2, Fn: inc(k2)}},
						{{Table: tbl, Key: k1, Fn: inc(k1)}},
					})
					crosses.Add(1)
				}
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Exec(func(tx *core.Txn) error {
		v1, err := tx.Read(tbl, k1)
		if err != nil {
			return err
		}
		v2, err := tx.Read(tbl, k2)
		if err != nil {
			return err
		}
		// Every transaction bumps k1; the cross-partition ones bump k2 too.
		want1, want2 := uint64(singles.Load()+crosses.Load()), uint64(crosses.Load())
		if dec(v1) != want1 || dec(v2) != want2 {
			t.Fatalf("counter drift: k1=%d want %d, k2=%d want %d", dec(v1), want1, dec(v2), want2)
		}
		return nil
	})
	st := d.StatsSnapshot()
	// The two setup inserts took the fast path too.
	if st.SinglePartition != uint64(singles.Load())+2 || st.CrossPartition != uint64(crosses.Load()) {
		t.Fatalf("path counters single=%d cross=%d, ran %d and %d",
			st.SinglePartition, st.CrossPartition, singles.Load()+2, crosses.Load())
	}
}

// TestCloseUnderLoad closes the engine while workers are mid-Exec:
// every call must return nil or ErrClosed — never panic on a closed
// inbox, never hang on a countdown that cannot drain.
func TestCloseUnderLoad(t *testing.T) {
	c, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable("t")
	d := New(c, Options{Executors: 2, QueueDepth: 2})
	k1, k2 := crossKeys(t, d, tbl)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(w*1000 + i%50)
				var err error
				if i%4 == 0 {
					err = d.Exec([]Phase{{
						{Table: tbl, Key: k1, Fn: func(*core.Txn) error { return nil }},
						{Table: tbl, Key: k2, Fn: func(*core.Txn) error { return nil }},
					}})
				} else {
					err = d.ExecSingle(Action{Table: tbl, Key: key, Fn: func(tx *core.Txn) error {
						_, rerr := tx.Read(tbl, key)
						if errors.Is(rerr, core.ErrNotFound) {
							return tx.Insert(tbl, key, enc(1))
						}
						return rerr
					}})
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	d.Close()
	close(stop)
	wg.Wait()
	if err := d.ExecSingle(Action{Table: tbl, Key: 1, Fn: func(*core.Txn) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close: %v", err)
	}
}
