// Retry policy of Engine.Exec: which errors are worth
// re-running a transaction for, and how long to back off between
// attempts so victims don't re-collide immediately.
package core

import (
	"errors"
	"math/rand/v2"
	"time"

	"hydra/internal/lock"
)

// maxTxnRetries bounds how many times Exec re-runs a retryable
// victim before surfacing the error (so 1 + maxTxnRetries attempts).
const maxTxnRetries = 10

// Backoff window: attempt 0 may retry immediately (full jitter can
// draw zero — the fast path for a transient collision), the window
// doubles per attempt, and the cap keeps the worst case bounded.
const (
	retryBase = 10 * time.Microsecond
	retryCap  = 5 * time.Millisecond
)

// BackoffDelay returns the randomized sleep before retry attempt
// (0-based): full jitter over a capped exponential window,
// uniform in [0, min(retryBase<<attempt, retryCap)). Jitter — not
// just growth — is what de-synchronizes a convoy of victims: equal
// deterministic delays would re-collide the same transactions on
// every round.
func BackoffDelay(attempt int) time.Duration {
	window := retryBase << uint(attempt)
	if window <= 0 || window > retryCap {
		window = retryCap
	}
	return time.Duration(rand.Int64N(int64(window)))
}

// retrySleep sleeps the backoff for a retry attempt. It is a variable
// so tests can count attempts and strip the real delay.
var retrySleep = func(attempt int) { time.Sleep(BackoffDelay(attempt)) }

// retryableTxnErr reports whether err names a transient victim worth
// re-running: lock victims (deadlock, timeout) on any path, and
// write-conflict or expired-snapshot aborts on the SI path.
func retryableTxnErr(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) ||
		errors.Is(err, lock.ErrTimeout) ||
		errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrSnapshotExpired)
}
