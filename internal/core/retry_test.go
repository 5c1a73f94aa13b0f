package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/lock"
)

func TestBackoffDelayCappedWindow(t *testing.T) {
	for attempt := 0; attempt < 40; attempt++ {
		window := retryBase << uint(attempt)
		if window <= 0 || window > retryCap {
			window = retryCap
		}
		for i := 0; i < 50; i++ {
			d := BackoffDelay(attempt)
			if d < 0 || d >= window {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, window)
			}
		}
	}
	// The cap must actually bind for large attempts (no overflow into
	// negative shifts).
	if d := BackoffDelay(63); d < 0 || d >= retryCap {
		t.Fatalf("attempt 63: delay %v outside [0, %v)", d, retryCap)
	}
}

// Exec must retry deadlock victims exactly maxTxnRetries times, with a
// backoff sleep between every pair of attempts — the regression is the
// zero-backoff retry storm where victims re-collided immediately.
func TestExecRetriesWithBackoff(t *testing.T) {
	e := memEngine(t, Scalable())
	var sleeps []int
	prev := retrySleep
	retrySleep = func(attempt int) { sleeps = append(sleeps, attempt) }
	defer func() { retrySleep = prev }()

	attempts := 0
	err := e.Exec(func(tx *Txn) error {
		attempts++
		return lock.ErrDeadlock
	})
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("Exec = %v, want ErrDeadlock", err)
	}
	if want := maxTxnRetries + 1; attempts != want {
		t.Fatalf("attempts = %d, want %d", attempts, want)
	}
	if len(sleeps) != maxTxnRetries {
		t.Fatalf("backoff sleeps = %d, want %d", len(sleeps), maxTxnRetries)
	}
	for i, a := range sleeps {
		if a != i {
			t.Fatalf("sleep %d ran with attempt %d", i, a)
		}
	}
}

// A genuine two-transaction deadlock resolves through retry: the
// victim backs off and re-runs rather than re-colliding forever.
func TestExecDeadlockVictimRecovers(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Insert(tbl, 1, []byte("a")); err != nil {
			return err
		}
		return tx.Insert(tbl, 2, []byte("b"))
	}); err != nil {
		t.Fatal(err)
	}
	var slept atomic.Int32 // both workers back off when both are victims
	prev := retrySleep
	retrySleep = func(int) { slept.Add(1); time.Sleep(time.Millisecond) }
	defer func() { retrySleep = prev }()

	// Two transactions lock {1,2} in opposite orders; each holds its
	// first lock across a pause so the cross-wait (and thus a deadlock
	// or timeout victim) is certain on the first attempt.
	order := [][2]uint64{{1, 2}, {2, 1}}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(keys [2]uint64) {
			first := true
			errs <- e.Exec(func(tx *Txn) error {
				if _, err := tx.ReadForUpdate(tbl, keys[0]); err != nil {
					return err
				}
				if first {
					first = false
					time.Sleep(5 * time.Millisecond)
				}
				if _, err := tx.ReadForUpdate(tbl, keys[1]); err != nil {
					return err
				}
				return tx.Update(tbl, keys[1], []byte("w"))
			})
		}(order[i])
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if slept.Load() == 0 {
		t.Fatal("no backoff sleep recorded; victim retried without backing off")
	}
}
