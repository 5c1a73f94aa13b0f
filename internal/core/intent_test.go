package core

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/lock"
	"hydra/internal/obs"
	"hydra/internal/wal"
)

// Begin and Exec are the only doors into a transaction. A ninth one
// (BeginFoo, ExecBar) must not regrow unnoticed: intent goes into the
// Intent value, not into the method name.
func TestEngineHasExactlyTwoDoors(t *testing.T) {
	door := regexp.MustCompile(`^(Begin|Exec)`)
	var got []string
	typ := reflect.TypeOf(&Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; door.MatchString(name) {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if want := []string{"Begin", "Exec"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Engine's Begin*/Exec* methods = %v, want exactly %v", got, want)
	}
}

// The options ride a variadic so that e.Begin() keeps compiling; this
// pins the zero-option Begin + read + Commit at the allocation count it
// had before the variadic existed (the 5 are the lock manager's and the
// read's, none is the transaction's), and shows that passing an Intent
// costs no more.
func TestBeginAllocationsPinned(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("hydradebug assertions allocate; the race detector makes the handle pool lossy")
	}
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Intent) float64 {
		return testing.AllocsPerRun(500, func() {
			tx := e.Begin(opts...)
			if _, err := tx.Read(tbl, 1); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := run(); n > 5 {
		t.Fatalf("zero-option Begin+Read+Commit: %v allocs/op, want <= 5", n)
	}
	if n := run(Intent{ReadOnly: true}); n > 5 {
		t.Fatalf("read-only Begin+Read+Commit: %v allocs/op, want <= 5", n)
	}
}

// modeCase is one cell of intent x Config.MVCC: what was asked for and
// which mechanism must have been chosen.
type modeCase struct {
	name   string
	mvcc   bool
	intent Intent
	agent  bool        // the test adds an SLI agent to intent
	path   obs.TxnPath // phase-profile tag of the mechanism chosen
	snap   bool        // pins a snapshot (lock-free reads)
	locks  bool        // reads and writes go through the lock manager
}

// open returns the case's Intent for e, with a live agent when the
// case wants one.
func (tc modeCase) open(t *testing.T, e *Engine) Intent {
	in := tc.intent
	if tc.agent {
		in.Agent = e.Locks().NewAgent()
		t.Cleanup(in.Agent.Close)
	}
	return in
}

func modeCases() []modeCase {
	var cases []modeCase
	for _, mvcc := range []bool{false, true} {
		snapPath := func(p obs.TxnPath) obs.TxnPath {
			if mvcc {
				return p
			}
			return obs.PathConv
		}
		sfx := map[bool]string{false: "/locks", true: "/mvcc"}[mvcc]
		cases = append(cases,
			modeCase{name: "default" + sfx, mvcc: mvcc, path: obs.PathConv, locks: true},
			modeCase{name: "readonly" + sfx, mvcc: mvcc, intent: Intent{ReadOnly: true},
				path: snapPath(obs.PathROSnap), snap: mvcc, locks: !mvcc},
			modeCase{name: "optimistic" + sfx, mvcc: mvcc, intent: Intent{Optimistic: true},
				path: snapPath(obs.PathSIWrite), snap: mvcc, locks: !mvcc},
			modeCase{name: "agent" + sfx, mvcc: mvcc, agent: true, path: obs.PathConv, locks: true},
			modeCase{name: "owned" + sfx, mvcc: mvcc, intent: Intent{Owned: obs.PathDoraSingle},
				path: obs.PathDoraSingle},
		)
	}
	return cases
}

// TestIntentModes runs one body — read, read-modify-write, insert +
// delete, scan, a forced deadlock victim, a forced error — through the
// one door under every intent, with Config.MVCC on and off, and checks
// what must hold whichever mechanism the engine picked.
func TestIntentModes(t *testing.T) {
	var sleeps []int
	prev := retrySleep
	retrySleep = func(attempt int) { sleeps = append(sleeps, attempt) }
	defer func() { retrySleep = prev }()
	errBoom := errors.New("boom")

	for _, tc := range modeCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Scalable()
			cfg.MVCC = tc.mvcc
			e := memEngine(t, cfg)
			tbl, _ := e.CreateTable("t")
			if err := e.Exec(func(tx *Txn) error {
				for k := uint64(1); k <= 3; k++ {
					if err := tx.Insert(tbl, k, []byte("base")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			intent := tc.open(t, e)
			value := func(key uint64) string {
				var v []byte
				err := e.Exec(func(tx *Txn) (err error) { v, err = tx.Read(tbl, key); return })
				if errors.Is(err, ErrNotFound) {
					return "<absent>"
				}
				if err != nil {
					t.Fatal(err)
				}
				return string(v)
			}
			// step runs fn through Exec and checks the bookkeeping every
			// mode owes: counters, the mechanism's path tag in the phase
			// profile, retries through retrySleep, no pin left behind. It
			// returns how many lock-manager acquisitions the step made.
			step := func(what string, wantErr error, commits, aborts uint64, retries int, fn func(tx *Txn) error) uint64 {
				t.Helper()
				sleeps = sleeps[:0]
				before := e.StatsSnapshot()
				pc := obs.TxnPhases.Snapshot(tc.path, obs.OutcomeCommit).Count
				pa := obs.TxnPhases.Snapshot(tc.path, obs.OutcomeAbort).Count
				err := e.Exec(func(tx *Txn) error {
					if tx.path != tc.path || tx.mode.snapshot != tc.snap || (tx.SnapshotLSN() != 0) != tc.snap {
						t.Errorf("%s: path %v snapshot %v (lsn %d), want path %v snapshot %v",
							what, tx.path, tx.mode.snapshot, tx.SnapshotLSN(), tc.path, tc.snap)
					}
					return fn(tx)
				}, intent)
				if !errors.Is(err, wantErr) {
					t.Fatalf("%s: Exec = %v, want %v", what, err, wantErr)
				}
				after := e.StatsSnapshot()
				if c, a := after.Commits-before.Commits, after.Aborts-before.Aborts; c != commits || a != aborts {
					t.Errorf("%s: commits +%d aborts +%d, want +%d +%d", what, c, a, commits, aborts)
				}
				if c := obs.TxnPhases.Snapshot(tc.path, obs.OutcomeCommit).Count - pc; c != commits {
					t.Errorf("%s: phase profile %v/commit +%d, want +%d", what, tc.path, c, commits)
				}
				if a := obs.TxnPhases.Snapshot(tc.path, obs.OutcomeAbort).Count - pa; a != aborts {
					t.Errorf("%s: phase profile %v/abort +%d, want +%d", what, tc.path, a, aborts)
				}
				if len(sleeps) != retries {
					t.Errorf("%s: %d backoff sleeps, want %d", what, len(sleeps), retries)
				}
				if after.Mvcc.ActiveSnapshots != 0 {
					t.Errorf("%s: %d snapshot pins left", what, after.Mvcc.ActiveSnapshots)
				}
				return after.Lock.Acquires - before.Lock.Acquires
			}

			acquires := step("read", nil, 1, 0, 0, func(tx *Txn) error {
				v, err := tx.Read(tbl, 1)
				if err == nil && string(v) != "base" {
					err = fmt.Errorf("read %q", v)
				}
				return err
			})
			// A locked read is exactly IS(table) + S(row); a snapshot or
			// partition-owned one never reaches the lock manager.
			if want := map[bool]uint64{true: 2, false: 0}[tc.locks]; acquires != want {
				t.Errorf("read made %d lock acquisitions, want %d", acquires, want)
			}
			scan := func(tx *Txn) (string, error) {
				var rows string
				err := tx.Scan(tbl, 0, 1000, func(k uint64, v []byte) bool {
					rows += fmt.Sprintf("%d=%s ", k, v)
					return true
				})
				return rows, err
			}

			if intent.ReadOnly {
				// The intent, not the mechanism, refuses writes: the
				// snapshot and the IS/S fallback behave alike.
				step("read-only refuses writes", nil, 1, 0, 0, func(tx *Txn) error {
					if err := tx.Insert(tbl, 9, []byte("x")); !errors.Is(err, ErrReadOnlyTxn) {
						return fmt.Errorf("Insert: %v", err)
					}
					if err := tx.Update(tbl, 1, []byte("x")); !errors.Is(err, ErrReadOnlyTxn) {
						return fmt.Errorf("Update: %v", err)
					}
					if err := tx.Delete(tbl, 1); !errors.Is(err, ErrReadOnlyTxn) {
						return fmt.Errorf("Delete: %v", err)
					}
					if _, err := tx.ReadForUpdate(tbl, 1); !errors.Is(err, ErrReadOnlyTxn) {
						return fmt.Errorf("ReadForUpdate: %v", err)
					}
					rows, err := scan(tx)
					if err == nil && rows != "1=base 2=base 3=base " {
						err = fmt.Errorf("scan %q", rows)
					}
					return err
				})
			} else {
				step("rmw + insert/delete + scan", nil, 1, 0, 0, func(tx *Txn) error {
					v, err := tx.ReadForUpdate(tbl, 1)
					if err != nil {
						return err
					}
					if err := tx.Update(tbl, 1, append(v, '+')); err != nil {
						return err
					}
					if err := tx.Insert(tbl, 7, []byte("new")); err != nil {
						return err
					}
					if err := tx.Insert(tbl, 8, []byte("gone")); err != nil {
						return err
					}
					if err := tx.Delete(tbl, 8); err != nil {
						return err
					}
					if err := tx.Delete(tbl, 3); err != nil {
						return err
					}
					rows, err := scan(tx)
					if err == nil && rows != "1=base+ 2=base 7=new " {
						err = fmt.Errorf("scan inside the writer %q", rows)
					}
					return err
				})
				if got := value(1) + " " + value(3) + " " + value(7) + " " + value(8); got != "base+ <absent> new <absent>" {
					t.Fatalf("after commit: %s", got)
				}
			}

			attempts := 0
			step("deadlock victim", nil, 1, 1, 1, func(tx *Txn) error {
				if attempts++; attempts == 1 {
					if !intent.ReadOnly {
						if err := tx.Update(tbl, 2, []byte("victim")); err != nil {
							return err
						}
					}
					return lock.ErrDeadlock
				}
				_, err := tx.Read(tbl, 2)
				return err
			})
			if sleeps[0] != 0 {
				t.Errorf("first retry slept as attempt %d", sleeps[0])
			}
			step("error aborts", errBoom, 0, 1, 0, func(tx *Txn) error {
				if !intent.ReadOnly {
					if err := tx.Update(tbl, 2, []byte("doomed")); err != nil {
						return err
					}
				}
				return errBoom
			})
			if got := value(2); got != "base" {
				t.Fatalf("key 2 = %q after the victim and the error aborted", got)
			}
			if n := liveCount(e); n != 0 {
				t.Fatalf("%d transactions still registered", n)
			}
		})
	}
}

// A Commit that returns an error leaves the transaction active in every
// mode, and the caller's Abort is what retires it — even when the log
// is dead and the rollback itself cannot be logged: the handle, its
// locks and its log-truncation horizon must not outlive the failure.
func TestFailedCommitLeavesTxnActive(t *testing.T) {
	for _, tc := range modeCases() {
		if tc.intent.ReadOnly {
			continue // logs nothing: its Commit has no way to fail
		}
		// Conventional holds the locks across the failed flush wait;
		// Scalable (ELR) gave them up before it.
		cfg := Conventional()
		if tc.mvcc {
			cfg = Scalable()
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg.MVCC = tc.mvcc
			dev := wal.NewMem()
			e, err := OpenWith(cfg, buffer.NewMemStore(), dev)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tbl, _ := e.CreateTable("t")
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) }); err != nil {
				t.Fatal(err)
			}
			tx := e.Begin(tc.open(t, e))
			if err := tx.Update(tbl, 1, []byte("lost")); err != nil {
				t.Fatal(err)
			}
			bang := errors.New("injected device death")
			dev.FailAfter(1, bang)
			if err := tx.Commit(); !errors.Is(err, bang) {
				t.Fatalf("Commit on a dead device: %v", err)
			}
			if tx.state != txnActive || !tx.joined() {
				t.Fatalf("failed Commit retired the handle (state %v)", tx.state)
			}
			if err := tx.Abort(); !errors.Is(err, bang) {
				t.Fatalf("Abort on a dead log: %v, want it to report the log's error", err)
			}
			if n := liveCount(e); n != 0 {
				t.Fatalf("%d transactions still registered after the abort", n)
			}
			if st := e.StatsSnapshot(); st.Aborts != 1 || st.Mvcc.ActiveSnapshots != 0 {
				t.Fatalf("aborts = %d, pins = %d", st.Aborts, st.Mvcc.ActiveSnapshots)
			}
			// The row lock is free again: a locked reader gets it at once.
			other := e.Begin()
			if _, err := other.ReadForUpdate(tbl, 1); err != nil {
				t.Fatalf("row still locked after the abort: %v", err)
			}
			if err := other.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Under SI the commit can also fail with nothing logged: the loser
	// of first-committer-wins stays active until its caller aborts it.
	e := mvccEngine(t)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) }); err != nil {
		t.Fatal(err)
	}
	loser := e.Begin(Intent{Optimistic: true})
	if err := loser.Update(tbl, 1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("first")) }); err != nil {
		t.Fatal(err)
	}
	if err := loser.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("loser Commit: %v", err)
	}
	if loser.state != txnActive || !loser.joined() {
		t.Fatal("conflict retired the loser; its caller is supposed to")
	}
	if err := loser.Abort(); err != nil {
		t.Fatal(err)
	}
}
