package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSIReadYourWritesAndNetEffects(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{Optimistic: true})
	// Existence errors are decided against snapshot + write set.
	if err := s.Insert(tbl, 1, []byte("dup")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := s.Update(tbl, 2, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := s.Delete(tbl, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Read-your-writes through the overlay.
	if err := s.Update(tbl, 1, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "mine" {
		t.Fatalf("read own update: %q, %v", v, err)
	}
	if err := s.Insert(tbl, 2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 2); err != nil || string(v) != "new" {
		t.Fatalf("read own insert: %q, %v", v, err)
	}
	// Insert-then-delete nets out.
	if err := s.Insert(tbl, 3, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(tbl, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(tbl, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read netted-out insert: %v", err)
	}
	// Delete-then-insert nets to an update.
	if err := s.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(tbl, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read own delete: %v", err)
	}
	if err := s.Insert(tbl, 1, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed state reflects the net effects.
	want := map[uint64]string{1: "reborn", 2: "new"}
	if err := e.Exec(func(tx *Txn) error {
		for k, w := range want {
			v, err := tx.Read(tbl, k)
			if err != nil {
				return err
			}
			if string(v) != w {
				return fmt.Errorf("key %d = %q, want %q", k, v, w)
			}
		}
		if _, err := tx.Read(tbl, 3); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("key 3 should be absent: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSIScanMergesOverlay(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error {
		for _, k := range []uint64{10, 20, 30} {
			if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{Optimistic: true})
	if err := s.Delete(tbl, 20); err != nil { // hide a snapshot row
		t.Fatal(err)
	}
	if err := s.Update(tbl, 30, []byte("mine")); err != nil { // override one
		t.Fatal(err)
	}
	if err := s.Insert(tbl, 25, []byte("ins")); err != nil { // add between
		t.Fatal(err)
	}
	if err := s.Insert(tbl, 40, []byte("tail")); err != nil { // add past the walk
		t.Fatal(err)
	}
	var got []string
	if err := s.Scan(tbl, 0, 100, func(k uint64, v []byte) bool {
		got = append(got, fmt.Sprintf("%d=%s", k, v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"10=v10", "25=ins", "30=mine", "40=tail"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestSIFirstCommitterWins is the deterministic conflict matrix:
// every case pins two SI writers on the same snapshot, commits the
// first, and checks what the second committer's validation decides.
func TestSIFirstCommitterWins(t *testing.T) {
	cases := []struct {
		name   string
		first  func(tx *Txn, tbl *Table) error
		second func(tx *Txn, tbl *Table) error
		// wantConflict is the second committer's fate once the first
		// has committed.
		wantConflict bool
	}{
		{
			name:         "disjoint keys commit",
			first:        func(tx *Txn, tbl *Table) error { return tx.Update(tbl, 1, []byte("a")) },
			second:       func(tx *Txn, tbl *Table) error { return tx.Update(tbl, 2, []byte("b")) },
			wantConflict: false,
		},
		{
			name:         "overlapping update aborts second",
			first:        func(tx *Txn, tbl *Table) error { return tx.Update(tbl, 1, []byte("a")) },
			second:       func(tx *Txn, tbl *Table) error { return tx.Update(tbl, 1, []byte("b")) },
			wantConflict: true,
		},
		{
			name:         "write after delete conflicts",
			first:        func(tx *Txn, tbl *Table) error { return tx.Delete(tbl, 1) },
			second:       func(tx *Txn, tbl *Table) error { return tx.Update(tbl, 1, []byte("b")) },
			wantConflict: true,
		},
		{
			name:         "insert racing insert conflicts",
			first:        func(tx *Txn, tbl *Table) error { return tx.Insert(tbl, 9, []byte("a")) },
			second:       func(tx *Txn, tbl *Table) error { return tx.Insert(tbl, 9, []byte("b")) },
			wantConflict: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mvccEngine(t)
			tbl, _ := e.CreateTable("t")
			if err := e.Exec(func(tx *Txn) error {
				if err := tx.Insert(tbl, 1, []byte("base")); err != nil {
					return err
				}
				return tx.Insert(tbl, 2, []byte("base"))
			}); err != nil {
				t.Fatal(err)
			}
			t1 := e.Begin(Intent{Optimistic: true})
			t2 := e.Begin(Intent{Optimistic: true})
			if err := tc.first(t1, tbl); err != nil {
				t.Fatal(err)
			}
			if err := tc.second(t2, tbl); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatalf("first committer: %v", err)
			}
			err := t2.Commit()
			if tc.wantConflict {
				if !errors.Is(err, ErrWriteConflict) {
					t.Fatalf("second committer: %v, want ErrWriteConflict", err)
				}
				// The loser is still active; its Abort is the cheap
				// unlogged retire, and the loss is counted exactly once.
				if err := t2.Abort(); err != nil {
					t.Fatalf("abort of the loser: %v", err)
				}
				st := e.StatsSnapshot()
				if st.Mvcc.SIConflictAborts != 1 || st.Aborts != 1 {
					t.Fatalf("si_conflict_aborts = %d, aborts = %d, want 1 and 1", st.Mvcc.SIConflictAborts, st.Aborts)
				}
			} else if err != nil {
				t.Fatalf("second committer on disjoint keys: %v", err)
			}
		})
	}
}

// TestOptimisticAdmitsWriteSkew pins snapshot isolation's known
// anomaly: commit validates only the write set, so two optimistic
// transactions that each read keys 1 and 2 (both 1, invariant x + y ≥ 1)
// and each set a different one to 0 both commit, and the store breaks
// the invariant. ROADMAP item 37 (read validation) inverts this test:
// the second commit must then fail with ErrWriteConflict.
func TestOptimisticAdmitsWriteSkew(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Insert(tbl, 1, []byte{1}); err != nil {
			return err
		}
		return tx.Insert(tbl, 2, []byte{1})
	}); err != nil {
		t.Fatal(err)
	}
	sum := func(tx *Txn) int {
		t.Helper()
		n := 0
		for k := uint64(1); k <= 2; k++ {
			v, err := tx.Read(tbl, k)
			if err != nil {
				t.Fatal(err)
			}
			n += int(v[0])
		}
		return n
	}
	t1 := e.Begin(Intent{Optimistic: true})
	t2 := e.Begin(Intent{Optimistic: true})
	for i, tx := range []*Txn{t1, t2} {
		if sum(tx) != 2 {
			t.Fatal("a snapshot does not see x + y = 2")
		}
		if err := tx.Update(tbl, uint64(i+1), []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("second commit: %v (write skew is no longer admitted: invert this test)", err)
	}
	if err := e.Exec(func(tx *Txn) error {
		if n := sum(tx); n != 0 {
			return fmt.Errorf("x + y = %d after both commits, want the skewed 0", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// An SI abort before commit leaves no trace: nothing logged, no
// version nodes installed, data untouched.
func TestSIAbortReleasesNothingIntoChains(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("keep")) }); err != nil {
		t.Fatal(err)
	}
	before := e.StatsSnapshot().Mvcc
	s := e.Begin(Intent{Optimistic: true})
	if err := s.Update(tbl, 1, []byte("discard")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	after := e.StatsSnapshot().Mvcc
	if after.Installs != before.Installs {
		t.Fatalf("abort installed versions: %d -> %d", before.Installs, after.Installs)
	}
	if after.LiveNodes != before.LiveNodes {
		t.Fatalf("abort changed live nodes: %d -> %d", before.LiveNodes, after.LiveNodes)
	}
	if after.ActiveSnapshots != 0 {
		t.Fatalf("abort leaked a pin: %d active", after.ActiveSnapshots)
	}
	if err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil {
			return err
		}
		if string(v) != "keep" {
			return fmt.Errorf("key 1 = %q after SI abort", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// SI writers and locked writers interoperate: a locked commit after
// the SI snapshot conflicts the SI writer on the shared key.
func TestSIConflictsWithLockedWriter(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{Optimistic: true})
	if err := s.Update(tbl, 1, []byte("si")); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("locked")) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("SI commit after locked commit: %v, want ErrWriteConflict", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil {
			return err
		}
		if string(v) != "locked" {
			return fmt.Errorf("key 1 = %q, want locked", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Exec retries a write conflict on a fresh snapshot and succeeds.
func TestExecRetriesSIConflict(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte{0}) }); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	if err := e.Exec(func(tx *Txn) error {
		attempts++
		if attempts == 1 {
			// Stage the write first so its snapshot predates the
			// conflicting locked commit, then force the conflict.
			if err := tx.Update(tbl, 1, []byte{1}); err != nil {
				return err
			}
			return e.Exec(func(w *Txn) error { return w.Update(tbl, 1, []byte{9}) })
		}
		return tx.Update(tbl, 1, []byte{1})
	}, Intent{Optimistic: true}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	st := e.StatsSnapshot().Mvcc
	if st.SIConflictAborts != 1 || st.SICommits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSIHotKeyStress hammers a few hot keys with concurrent SI
// incrementers under -race: first-committer-wins must lose no update,
// so each key's final value equals the number of commits that won it.
func TestSIHotKeyStress(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	const hotKeys = 4
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < hotKeys; k++ {
			var z [8]byte
			if err := tx.Insert(tbl, k, z[:]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		iters   = 40
	)
	var committed [hotKeys]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := uint64((w + i) % hotKeys)
				err := e.Exec(func(tx *Txn) error {
					v, err := tx.Read(tbl, k)
					if err != nil {
						return err
					}
					n := binary.LittleEndian.Uint64(v)
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], n+1)
					return tx.Update(tbl, k, buf[:])
				}, Intent{Optimistic: true})
				if err == nil {
					committed[k].Add(1)
				} else if !retryableTxnErr(err) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// A retryable loss (conflict or lock victim) that
				// survived all retries is an allowed outcome under
				// extreme contention; it must simply not count as an
				// applied increment.
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < hotKeys; k++ {
			v, err := tx.Read(tbl, k)
			if err != nil {
				return err
			}
			got := binary.LittleEndian.Uint64(v)
			if want := committed[k].Load(); got != want {
				return fmt.Errorf("key %d = %d, want %d committed increments (lost update)", k, got, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.StatsSnapshot().Mvcc
	if st.SICommits == 0 {
		t.Fatal("no SI commits recorded")
	}
}

// TestSIRetryNeverTouchesForeignTxn is the behaviour behind the race
// TestSIHotKeyStress reports: a retry loop that looks at a handle after
// the call that retired it can find it recycled into another
// goroutine's live transaction and abort that one. Optimistic writers
// fight over one key (so conflict losers are retired and their handles
// recycled constantly) while locked transactions on the same engine
// stay open across scheduling points; no locked transaction may see
// ErrTxnDone or lose its own write.
func TestSIRetryNeverTouchesForeignTxn(t *testing.T) {
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 0, make([]byte, 8)) }); err != nil {
		t.Fatal(err)
	}
	const (
		fighters = 6
		bystand  = 4
		rounds   = 150
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < fighters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Exec(func(tx *Txn) error {
					v, err := tx.Read(tbl, 0)
					if err != nil {
						return err
					}
					runtime.Gosched() // widen the conflict window
					binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
					return tx.Update(tbl, 0, v)
				}, Intent{Optimistic: true})
				if err != nil && !retryableTxnErr(err) {
					t.Errorf("fighter: %v", err)
					return
				}
			}
		}()
	}
	var bwg sync.WaitGroup
	for w := 1; w <= bystand; w++ {
		bwg.Add(1)
		go func(w int) {
			defer bwg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64(w*rounds + i)
				tx := e.Begin()
				if err := tx.Insert(tbl, key, []byte("mine")); err != nil {
					t.Errorf("bystander insert: %v", err)
					return
				}
				for j := 0; j < 4; j++ {
					runtime.Gosched()
					if v, err := tx.Read(tbl, key); err != nil || string(v) != "mine" {
						t.Errorf("bystander lost its own write mid-transaction: %q, %v", v, err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("bystander commit: %v", err)
					return
				}
			}
		}(w)
	}
	bwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := e.Exec(func(tx *Txn) error {
		for key := uint64(rounds); key < uint64((bystand+1)*rounds); key++ {
			if _, err := tx.Read(tbl, key); err != nil {
				return fmt.Errorf("committed bystander row %d: %w", key, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A snapshot past MaxSnapshotAge is expired by its age alone: its next
// read or scan fails with ErrSnapshotExpired before any raise passes its
// pin. The next raise (here called directly; writers sample one) lets
// the watermark pass the pin, so GC reclaims the chains it held, and
// the transaction counts as expired once, when it leaves.
func TestMaxSnapshotAgeExpiresPin(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Nanosecond
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	// Grow the chain the pin holds live.
	for i := 0; i < 4; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Read(tbl, 1); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("read on expired snapshot: %v", err)
	}
	if err := s.Scan(tbl, 0, 10, func(uint64, []byte) bool { return true }); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("scan on expired snapshot: %v", err)
	}
	if st := e.StatsSnapshot().Mvcc; st.LiveNodes == 0 {
		t.Fatal("the chains went before any raise passed the pin")
	}
	e.raise()
	st := e.StatsSnapshot().Mvcc
	if st.ActiveSnapshots != 0 {
		t.Fatalf("ActiveSnapshots = %d, want 0", st.ActiveSnapshots)
	}
	if st.LiveNodes != 0 {
		t.Fatalf("LiveNodes = %d after the raise, want 0", st.LiveNodes)
	}
	if st.SnapshotsExpired != 0 {
		t.Fatalf("SnapshotsExpired = %d before the transaction left, want 0", st.SnapshotsExpired)
	}
	// Retiring the expired handle is clean.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Mvcc.SnapshotsExpired; n != 1 {
		t.Fatalf("SnapshotsExpired = %d, want 1", n)
	}
}

// An SI writer that goes past MaxSnapshotAge after its writes fails at
// commit with the retryable error; the caller's Abort then releases
// everything.
func TestMaxSnapshotAgeExpiresSIWriter(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Hour
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{Optimistic: true})
	if err := s.Update(tbl, 1, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	backdate(s, 2*time.Hour)
	if err := s.Commit(); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("commit on expired snapshot: %v", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil {
			return err
		}
		if string(v) != "v0" {
			return fmt.Errorf("key 1 = %q, want v0", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Mvcc.SnapshotsExpired; n != 1 {
		t.Fatalf("SnapshotsExpired = %d, want 1", n)
	}
}

// Writers sample a raise as they finish: enough version-installing
// commits let the GC pass an overdue pin that is still open, with no
// explicit call. The transaction counts as expired when it leaves.
func TestMaxSnapshotAgeSampledFromWriters(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Nanosecond
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	s := e.Begin(Intent{ReadOnly: true})
	for i := 0; i < 2*expireEvery; i++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.StatsSnapshot().Mvcc; st.GCNodes == 0 || st.LiveNodes >= expireEvery {
		t.Fatalf("the sampled raise never passed the overdue pin: %+v", st)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Mvcc.SnapshotsExpired; n != 1 {
		t.Fatalf("SnapshotsExpired = %d, want 1", n)
	}
}
