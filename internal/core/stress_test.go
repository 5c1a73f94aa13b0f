package core

import (
	"errors"
	"sync"
	"testing"

	"hydra/internal/lock"
	"hydra/internal/rng"
)

// TestConcurrentCommitAbortStress hammers the whole commit pipeline —
// Begin, logging, group-commit waits, lock ReleaseAll and lock
// escalation — from many goroutines at once. It exists to be run under
// -race: the pooled Txn handles, caller-owned lock holders and keyed
// flush waiters all cross goroutines here.
func TestConcurrentCommitAbortStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	e := memEngine(t, Scalable())
	tbl, err := e.CreateTable("stress")
	if err != nil {
		t.Fatal(err)
	}
	hot, err := e.CreateTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	// Seed the hot table with a handful of contended rows.
	const hotKeys = 4
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(1); k <= hotKeys; k++ {
			if err := tx.Insert(hot, k, []byte("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		iters   = 200
	)
	expected := func(err error) bool {
		// Contention outcomes are legitimate; anything else is a bug.
		return errors.Is(err, lock.ErrDeadlock) ||
			errors.Is(err, lock.ErrTimeout) ||
			errors.Is(err, ErrExists) ||
			errors.Is(err, ErrNotFound)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*7919 + 13)
			base := uint64(w+1) << 32
			for i := 0; i < iters; i++ {
				tx := e.Begin()
				failed := false
				step := func(err error) {
					if err == nil || failed {
						return
					}
					if !expected(err) {
						t.Errorf("worker %d iter %d: %v", w, i, err)
					}
					failed = true
				}
				// A burst of private-range writes; one in eight is a
				// bulk burst that comes to hold 64 distinct rows and
				// tries to trade the rest for a table lock (refused
				// while another worker is on the table).
				n := 1 + r.Intn(12)
				if r.Bool(0.125) {
					n = 96 + r.Intn(64)
				}
				for j := 0; j < n && !failed; j++ {
					k := base + uint64(r.Intn(256))
					switch r.Intn(3) {
					case 0:
						step(tx.Insert(tbl, k, []byte("v")))
					case 1:
						err := tx.Update(tbl, k, []byte("v2"))
						if errors.Is(err, ErrNotFound) {
							err = nil
						}
						step(err)
					default:
						err := tx.Delete(tbl, k)
						if errors.Is(err, ErrNotFound) {
							err = nil
						}
						step(err)
					}
				}
				// Touch a contended row so transactions actually
				// conflict and the deadlock detector gets traffic.
				if !failed && r.Bool(0.5) {
					k := 1 + uint64(r.Intn(hotKeys))
					if r.Bool(0.5) {
						_, err := tx.Read(hot, k)
						step(err)
					} else {
						step(tx.Update(hot, k, []byte("touched")))
					}
				}
				if failed || r.Bool(0.25) {
					if err := tx.Abort(); err != nil {
						t.Errorf("worker %d iter %d: abort: %v", w, i, err)
					}
					continue
				}
				if err := tx.Commit(); err != nil && !expected(err) {
					t.Errorf("worker %d iter %d: commit: %v", w, i, err)
				}
			}
		}(w)
	}
	// Concurrent fuzzy checkpoints read first LSNs while transactions
	// churn through the pooled handles.
	stop := make(chan struct{})
	var ckptWg sync.WaitGroup
	ckptWg.Add(1)
	go func() {
		defer ckptWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	ckptWg.Wait()

	// The lock table must be fully drained: a fresh transaction can
	// take an X lock on every table with no competition.
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Update(hot, 1, []byte("final")); err != nil {
			return err
		}
		return tx.Insert(tbl, 1<<60, []byte("final"))
	}); err != nil {
		t.Fatalf("post-stress transaction: %v", err)
	}
}
