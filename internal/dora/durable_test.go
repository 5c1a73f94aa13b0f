package dora

import (
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/wal"
)

// A read-only transaction returns no sooner than what it read is
// durable. A write's commit record is in the log and its flush is held
// up at the device; its executor has moved on, or its coordinator has
// released the executors it claimed, so a read-only transaction on the
// same partition reads the new value. An owned transaction takes no
// lock that could note the write, so the executor's mark does, and the
// read's coordinator waits for the flush before it answers. Each path
// writes and reads: one key through ExecSingle, or two keys on two
// executors through a cross-partition Exec.
func TestReadOnlyWaitsForWhatItReadToBeDurable(t *testing.T) {
	for _, c := range []struct {
		name                  string
		crossWrite, crossRead bool
	}{
		{"single/single", false, false},
		{"cross/single", true, false},
		{"single/cross", false, true},
		{"cross/cross", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := wal.NewMem()
			var gate atomic.Pointer[chan struct{}]
			dev.SyncFn = func() {
				if ch := gate.Load(); ch != nil {
					<-*ch
				}
			}
			ce, err := core.OpenWith(core.Scalable(), buffer.NewMemStore(), dev)
			if err != nil {
				t.Fatal(err)
			}
			d := New(ce, Options{Executors: 4})
			t.Cleanup(func() {
				d.Close()
				ce.Close()
			})
			held := make(chan struct{})
			t.Cleanup(func() { // first: a failed test leaves the flush held
				if gate.Swap(nil) != nil {
					close(held)
				}
			})
			tbl, err := ce.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			k1, k2 := crossKeys(t, d, tbl)
			if err := ce.Exec(func(tx *core.Txn) error {
				if err := tx.Insert(tbl, k1, []byte("v0")); err != nil {
					return err
				}
				return tx.Insert(tbl, k2, []byte("v0"))
			}); err != nil {
				t.Fatal(err)
			}
			keys := func(cross bool) []uint64 {
				if cross {
					return []uint64{k1, k2}
				}
				return []uint64{k1}
			}
			// run executes fn on each key, as one transaction.
			run := func(ks []uint64, fn func(tx *core.Txn, k uint64) error) error {
				var ph Phase
				for _, k := range ks {
					ph = append(ph, Action{Table: tbl, Key: k, Fn: func(tx *core.Txn) error { return fn(tx, k) }})
				}
				return d.Exec([]Phase{ph})
			}

			gate.Store(&held)
			updated := make(chan error, 1)
			go func() {
				updated <- run(keys(c.crossWrite), func(tx *core.Txn, k uint64) error {
					return tx.Update(tbl, k, []byte("v1"))
				})
			}()
			for ce.Log().CommitWaiters() == 0 { // the write parks in its flush wait
				time.Sleep(time.Millisecond)
			}

			type result struct {
				v   string
				err error
			}
			read := make(chan result, 1)
			go func() {
				var v []byte
				err := run(keys(c.crossRead), func(tx *core.Txn, k uint64) (err error) {
					if k == k1 {
						v, err = tx.Read(tbl, k)
					} else {
						_, err = tx.Read(tbl, k)
					}
					return err
				})
				read <- result{string(v), err}
			}()
			select {
			case r := <-read:
				t.Fatalf("before the flush the read returned %q, %v; it must wait for what it read to be durable", r.v, r.err)
			case <-time.After(50 * time.Millisecond):
			}
			if gate.Swap(nil) != nil {
				close(held)
			}
			if err := <-updated; err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-read:
				if r.err != nil || r.v != "v1" {
					t.Fatalf("after the flush the read returned %q, %v; want v1", r.v, r.err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the read never returned")
			}
			if n := ce.StatsSnapshot().DurableReadWaits; n != 1 {
				t.Fatalf("durable_read_waits = %d, want 1", n)
			}
		})
	}
}
