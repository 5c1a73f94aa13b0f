package dora

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/core"
)

func newDora(t *testing.T, executors int) (*Engine, *core.Engine, *core.Table) {
	t.Helper()
	c, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	d := New(c, Options{Executors: executors})
	t.Cleanup(func() {
		d.Close()
		c.Close()
	})
	return d, c, tbl
}

func enc(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// crossKeys returns two keys that route to different executors, so
// tests exercising the cross-partition path don't depend on hash luck.
func crossKeys(t *testing.T, d *Engine, tbl *core.Table) (uint64, uint64) {
	t.Helper()
	k1 := uint64(1)
	for k2 := uint64(2); k2 < 100_000; k2++ {
		if d.Route(tbl, k2) != d.Route(tbl, k1) {
			return k1, k2
		}
	}
	t.Fatal("no cross-partition key pair found")
	return 0, 0
}

func TestSingleActionTxn(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	err := d.ExecSingle(Action{Table: tbl, Key: 1, Fn: func(tx *core.Txn) error {
		return tx.Insert(tbl, 1, enc(100))
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Exec(func(tx *core.Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil || dec(v) != 100 {
			t.Fatalf("read %v, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := d.StatsSnapshot()
	if st.SinglePartition != 1 || st.CrossPartition != 0 {
		t.Fatalf("fast-path counters: single=%d cross=%d", st.SinglePartition, st.CrossPartition)
	}
}

func TestMultiPhaseTxn(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	k1, k2 := crossKeys(t, d, tbl)
	// Phase 1: two independent inserts; phase 2: an update that
	// depends on phase 1 having completed.
	err := d.Exec([]Phase{
		{
			{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k1, enc(10)) }},
			{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k2, enc(20)) }},
		},
		{
			{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { return tx.Update(tbl, k1, enc(11)) }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Exec(func(tx *core.Txn) error {
		if v, _ := tx.Read(tbl, k1); dec(v) != 11 {
			t.Fatalf("key 1 = %d", dec(v))
		}
		if v, _ := tx.Read(tbl, k2); dec(v) != 20 {
			t.Fatalf("key 2 = %d", dec(v))
		}
		return nil
	})
	st := d.StatsSnapshot()
	if st.ActionsExecuted != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SinglePartition != 0 || st.CrossPartition != 1 {
		t.Fatalf("fast-path counters: single=%d cross=%d", st.SinglePartition, st.CrossPartition)
	}
}

// A multi-phase transaction whose every action routes to one executor
// must take the fast path: shipped whole, no executor claimed.
func TestSamePartitionMultiPhaseFastPath(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	// RouteShift 0: the same key always routes identically, so phases
	// over one key are single-partition by construction.
	k := uint64(42)
	err := d.Exec([]Phase{
		{{Table: tbl, Key: k, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k, enc(1)) }}},
		{{Table: tbl, Key: k, Fn: func(tx *core.Txn) error { return tx.Update(tbl, k, enc(2)) }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Exec(func(tx *core.Txn) error {
		if v, _ := tx.Read(tbl, k); dec(v) != 2 {
			t.Fatalf("key = %d", dec(v))
		}
		return nil
	})
	st := d.StatsSnapshot()
	if st.SinglePartition != 1 || st.CrossPartition != 0 {
		t.Fatalf("fast path not taken: %+v", st)
	}
	if st.ActionsExecuted != 2 {
		t.Fatalf("actions = %d", st.ActionsExecuted)
	}
}

func TestFailedActionAbortsWholeTxn(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	k1, k2 := crossKeys(t, d, tbl)
	boom := errors.New("boom")
	err := d.Exec([]Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k1, enc(1)) }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { return boom }},
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The successful sibling action must have been rolled back.
	c.Exec(func(tx *core.Txn) error {
		if _, err := tx.Read(tbl, k1); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("aborted insert visible: %v", err)
		}
		return nil
	})
	// The abort released both claims: each partition serves again.
	for _, k := range []uint64{k1, k2} {
		if err := d.ExecSingle(Action{Table: tbl, Key: k, Fn: func(tx *core.Txn) error {
			return tx.Insert(tbl, k, enc(2))
		}}); err != nil {
			t.Fatalf("key %d after the abort: %v", k, err)
		}
	}
}

func TestPartitionSerialization(t *testing.T) {
	// Concurrent increments of the same key through DORA must not
	// lose updates even with no locks: the owning executor serializes
	// them.
	d, c, tbl := newDora(t, 4)
	if err := d.ExecSingle(Action{Table: tbl, Key: 7, Fn: func(tx *core.Txn) error {
		return tx.Insert(tbl, 7, enc(0))
	}}); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := d.ExecSingle(Action{Table: tbl, Key: 7, Fn: func(tx *core.Txn) error {
					v, err := tx.Read(tbl, 7)
					if err != nil {
						return err
					}
					return tx.Update(tbl, 7, enc(dec(v)+1))
				}})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Exec(func(tx *core.Txn) error {
		v, err := tx.Read(tbl, 7)
		if err != nil {
			return err
		}
		if dec(v) != workers*per {
			t.Fatalf("lost updates: counter = %d, want %d", dec(v), workers*per)
		}
		return nil
	})
}

func TestRouteStability(t *testing.T) {
	d, _, tbl := newDora(t, 8)
	for key := uint64(0); key < 100; key++ {
		a, b := d.Route(tbl, key), d.Route(tbl, key)
		if a != b {
			t.Fatalf("routing unstable for key %d", key)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("route out of range: %d", a)
		}
	}
}

func TestDisjointKeysParallelThroughput(t *testing.T) {
	d, c, tbl := newDora(t, 8)
	const n = 2000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 1_000_000
			for i := uint64(0); i < n/8; i++ {
				key := base + i
				if err := d.ExecSingle(Action{Table: tbl, Key: key, Fn: func(tx *core.Txn) error {
					return tx.Insert(tbl, key, enc(key))
				}}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	c.Exec(func(tx *core.Txn) error {
		return tx.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool {
			count++
			return true
		})
	})
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestClosedEngineRejects(t *testing.T) {
	c, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable("t")
	d := New(c, Options{Executors: 2})
	d.Close()
	d.Close() // idempotent
	if err := d.ExecSingle(Action{Table: tbl, Key: 1, Fn: func(*core.Txn) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

// Concurrent multi-phase transactions over the same two partitions:
// their claims must serialize them (no lost update), and every one
// commits. Keys are chosen to land on different executors.
func TestMultiPhaseLocalLockSerialization(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	k1, k2 := crossKeys(t, d, tbl)
	if err := d.Exec([]Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k1, enc(0)) }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k2, enc(0)) }},
	}}); err != nil {
		t.Fatal(err)
	}
	// Each transaction reads key 1 in phase 1 and adds the value to
	// key 2 in phase 2 (and vice versa), concurrently. Under
	// serializable execution the final values stay consistent with a
	// serial order: total increments = number of committed txns.
	const loops = 30
	var committed int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				var v uint64
				err := d.Exec([]Phase{
					{{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error {
						b, err := tx.Read(tbl, k1)
						if err != nil {
							return err
						}
						v = dec(b)
						return tx.Update(tbl, k1, enc(v+1))
					}}},
					{{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error {
						b, err := tx.Read(tbl, k2)
						if err != nil {
							return err
						}
						return tx.Update(tbl, k2, enc(dec(b)+1))
					}}},
				})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				atomic.AddInt64(&committed, 1)
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
		n := atomic.LoadInt64(&committed) // wg.Wait orders this, but stay atomic-everywhere
		if n != 4*loops || dec(v1) != uint64(n) || dec(v2) != uint64(n) {
			t.Fatalf("lost updates under partition claims: k1=%d k2=%d committed=%d",
				dec(v1), dec(v2), n)
		}
		return nil
	})
}

// Transactions that take the same two partitions in opposite phase
// orders all commit: each claims its executors in ascending id order
// whatever its phases say, so none can hold an executor another is
// waiting for while waiting itself.
func TestOppositeOrderCrossPartitionCommits(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	k1, k2 := crossKeys(t, d, tbl)
	if err := d.Exec([]Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k1, enc(0)) }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k2, enc(0)) }},
	}}); err != nil {
		t.Fatal(err)
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
	const workers, iters = 4, 50
	start := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		first, second := k1, k2
		if w%2 == 1 {
			first, second = k2, k1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				if err := d.Exec([]Phase{
					{{Table: tbl, Key: first, Fn: inc(first)}},
					{{Table: tbl, Key: second, Fn: inc(second)}},
				}); err != nil {
					t.Errorf("key %d then %d: %v", first, second, err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	close(start)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("opposite-order transactions did not finish")
	}
	c.Exec(func(tx *core.Txn) error {
		v1, _ := tx.Read(tbl, k1)
		v2, _ := tx.Read(tbl, k2)
		if dec(v1) != workers*iters || dec(v2) != workers*iters {
			t.Fatalf("k1=%d k2=%d, want %d each", dec(v1), dec(v2), workers*iters)
		}
		return nil
	})
}

// A cross-partition transaction holds each partition it touches until
// its commit record is in the log: a single-partition transaction on
// one of them runs only after it.
func TestCrossPartitionHoldsItsPartitions(t *testing.T) {
	d, c, tbl := newDora(t, 4)
	k1, k2 := crossKeys(t, d, tbl)
	started, gate := make(chan struct{}), make(chan struct{})
	crossDone := make(chan error, 1)
	go func() {
		crossDone <- d.Exec([]Phase{{
			{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error {
				close(started)
				<-gate
				return tx.Insert(tbl, k1, enc(1))
			}},
			{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { return tx.Insert(tbl, k2, enc(1)) }},
		}})
	}()
	<-started
	singleDone := make(chan error, 1)
	go func() {
		singleDone <- d.ExecSingle(Action{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error {
			v, err := tx.Read(tbl, k2)
			if err != nil {
				return err // the cross transaction has not run first
			}
			return tx.Update(tbl, k2, enc(dec(v)+1))
		}})
	}()
	select {
	case err := <-singleDone:
		t.Fatalf("single-partition transaction ran inside the claim: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-crossDone; err != nil {
		t.Fatal(err)
	}
	if err := <-singleDone; err != nil {
		t.Fatal(err)
	}
	c.Exec(func(tx *core.Txn) error {
		if v, _ := tx.Read(tbl, k2); dec(v) != 2 {
			t.Fatalf("k2 = %d, want 2", dec(v))
		}
		return nil
	})
}
