package core

import (
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

// A transaction that logs nothing returns no sooner than what it read
// is durable. An update's commit record is in the log and its flush is
// held up at the device; under early lock release its X lock is already
// gone, and under MVCC its version is visible from its commit stamp,
// so a read-only transaction can read the new value. Answering with it
// before the flush would answer with a value a crash takes back (a
// restart from the durable bytes holds the old one), so the read must
// wait for the flush — or read the old value, as a snapshot pinned at
// the durable frontier does. With neither ELR nor MVCC the reader
// waits on the row lock instead.
func TestReadOnlyWaitsForWhatItReadToBeDurable(t *testing.T) {
	for _, c := range []struct {
		name      string
		mvcc, elr bool
	}{
		{"locks/elr", false, true},
		{"locks/no-elr", false, false},
		{"mvcc/elr", true, true},
		{"mvcc/no-elr", true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Scalable()
			cfg.MVCC, cfg.ELR = c.mvcc, c.elr
			dev := wal.NewMem()
			var gate atomic.Pointer[chan struct{}]
			dev.SyncFn = func() {
				if ch := gate.Load(); ch != nil {
					<-*ch
				}
			}
			e, err := OpenWith(cfg, buffer.NewMemStore(), dev)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			held := make(chan struct{})
			t.Cleanup(func() { // first: a failed test leaves the flush held
				if gate.Swap(nil) != nil {
					close(held)
				}
			})
			tbl, err := e.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
				t.Fatal(err)
			}

			gate.Store(&held)
			updated := make(chan error, 1)
			go func() {
				updated <- e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("v1")) })
			}()
			for e.log.CommitWaiters() == 0 { // the update parks in its flush wait
				time.Sleep(time.Millisecond)
			}

			type result struct {
				v   string
				err error
			}
			read := make(chan result, 1)
			go func() {
				var v []byte
				err := e.Exec(func(tx *Txn) (err error) {
					v, err = tx.Read(tbl, 1)
					return err
				}, Intent{ReadOnly: true})
				read <- result{string(v), err}
			}()
			early := false
			select {
			case r := <-read:
				if r.err != nil || r.v != "v0" {
					t.Fatalf("before the flush the read returned %q, %v; only the durable v0 may be answered", r.v, r.err)
				}
				early = true
			case <-time.After(50 * time.Millisecond):
			}
			if gate.Swap(nil) != nil {
				close(held)
			}
			if err := <-updated; err != nil {
				t.Fatal(err)
			}
			if !early {
				select {
				case r := <-read:
					if r.err != nil {
						t.Fatal(r.err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("the read never returned")
				}
			}
			// Under ELR the locked read waits for the flush; a snapshot
			// is pinned at the durable frontier and answers v0 at once.
			switch n := e.StatsSnapshot().DurableReadWaits; {
			case c.mvcc && (!early || n != 0):
				t.Fatalf("snapshot read: early %v, durable_read_waits %d; want v0 at once and no wait", early, n)
			case !c.mvcc && c.elr && n != 1:
				t.Fatalf("durable_read_waits = %d, want 1", n)
			}
		})
	}
}
