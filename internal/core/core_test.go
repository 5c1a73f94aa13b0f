package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/rng"
	"hydra/internal/wal"
)

func memEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func configs() map[string]Config {
	return map[string]Config{
		"conventional": Conventional(),
		"scalable":     Scalable(),
	}
}

func TestBasicCRUD(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			e := memEngine(t, cfg)
			tbl, err := e.CreateTable("accounts")
			if err != nil {
				t.Fatal(err)
			}
			err = e.Exec(func(tx *Txn) error {
				return tx.Insert(tbl, 1, []byte("alice"))
			})
			if err != nil {
				t.Fatal(err)
			}
			err = e.Exec(func(tx *Txn) error {
				v, err := tx.Read(tbl, 1)
				if err != nil {
					return err
				}
				if string(v) != "alice" {
					return fmt.Errorf("read %q", v)
				}
				return tx.Update(tbl, 1, []byte("alice-2"))
			})
			if err != nil {
				t.Fatal(err)
			}
			err = e.Exec(func(tx *Txn) error {
				v, err := tx.Read(tbl, 1)
				if err != nil {
					return err
				}
				if string(v) != "alice-2" {
					return fmt.Errorf("after update: %q", v)
				}
				return tx.Delete(tbl, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			err = e.Exec(func(tx *Txn) error {
				_, err := tx.Read(tbl, 1)
				if !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("read after delete: %v", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	e := memEngine(t, Conventional())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("a")) })
	err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("b")) })
	if !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	// Original value intact.
	e.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl, 1)
		if err != nil || string(v) != "a" {
			t.Fatalf("read %q, %v", v, err)
		}
		return nil
	})
}

func TestUpdateMissingFails(t *testing.T) {
	e := memEngine(t, Conventional())
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 42, []byte("x")) }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Delete(tbl, 42) }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			e := memEngine(t, cfg)
			tbl, _ := e.CreateTable("t")
			e.Exec(func(tx *Txn) error {
				tx.Insert(tbl, 1, []byte("keep"))
				return tx.Insert(tbl, 2, []byte("keep2"))
			})

			tx := e.Begin()
			if err := tx.Insert(tbl, 3, []byte("doomed")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(tbl, 1, []byte("dirty")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete(tbl, 2); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}

			e.Exec(func(tx *Txn) error {
				if v, err := tx.Read(tbl, 1); err != nil || string(v) != "keep" {
					t.Fatalf("key 1 = %q, %v", v, err)
				}
				if v, err := tx.Read(tbl, 2); err != nil || string(v) != "keep2" {
					t.Fatalf("key 2 = %q, %v", v, err)
				}
				if _, err := tx.Read(tbl, 3); !errors.Is(err, ErrNotFound) {
					t.Fatalf("key 3 survived abort: %v", err)
				}
				return nil
			})
			if e.StatsSnapshot().Aborts != 1 {
				t.Fatal("abort not counted")
			}
		})
	}
}

func TestTxnDoneRejectsFurtherOps(t *testing.T) {
	e := memEngine(t, Conventional())
	tbl, _ := e.CreateTable("t")
	tx := e.Begin()
	tx.Insert(tbl, 1, []byte("a"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 2, []byte("b")); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestScan(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 100; i++ {
			if err := tx.Insert(tbl, i*2, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	var keys []uint64
	e.Exec(func(tx *Txn) error {
		return tx.Scan(tbl, 10, 20, func(k uint64, v []byte) bool {
			keys = append(keys, k)
			return true
		})
	})
	want := []uint64{10, 12, 14, 16, 18, 20}
	if len(keys) != len(want) {
		t.Fatalf("scan = %v", keys)
	}
}

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("subscriber")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("subscriber"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 7, []byte("v")) })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, err := e2.Table("subscriber")
	if err != nil {
		t.Fatal(err)
	}
	e2.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl2, 7)
		if err != nil || string(v) != "v" {
			t.Fatalf("read after reopen: %q, %v", v, err)
		}
		return nil
	})
	if _, err := e2.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
}

// Crash = drop the engine without Close (no FlushAll); the WAL and
// whatever pages happened to be flushed are all that survives.
func crash(e *Engine) {
	e.log.Close()
	e.closed.Store(true)
}

func TestCrashRecoveryCommittedSurvive(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			store := buffer.NewMemStore()
			dev := wal.NewMem()
			e, err := OpenWith(cfg, store, dev)
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := e.CreateTable("t")
			for i := uint64(0); i < 500; i++ {
				if err := e.Exec(func(tx *Txn) error {
					return tx.Insert(tbl, i, []byte(fmt.Sprintf("val-%d", i)))
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Update some, delete some — all committed.
			e.Exec(func(tx *Txn) error {
				for i := uint64(0); i < 100; i++ {
					if err := tx.Update(tbl, i, []byte(fmt.Sprintf("upd-%d", i))); err != nil {
						return err
					}
				}
				return nil
			})
			e.Exec(func(tx *Txn) error {
				for i := uint64(400); i < 450; i++ {
					if err := tx.Delete(tbl, i); err != nil {
						return err
					}
				}
				return nil
			})
			crash(e)

			e2, err := OpenWith(cfg, store, dev)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			rep := e2.RecoveryReport
			if rep.Committed == 0 || rep.Scanned == 0 {
				t.Fatalf("recovery saw nothing: %+v", rep)
			}
			tbl2, _ := e2.Table("t")
			e2.Exec(func(tx *Txn) error {
				for i := uint64(0); i < 500; i++ {
					v, err := tx.Read(tbl2, i)
					switch {
					case i >= 400 && i < 450:
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("deleted key %d resurfaced: %v", i, err)
						}
					case i < 100:
						if err != nil || string(v) != fmt.Sprintf("upd-%d", i) {
							t.Fatalf("key %d = %q, %v", i, v, err)
						}
					default:
						if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
							t.Fatalf("key %d = %q, %v", i, v, err)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestCrashRecoveryUncommittedRolledBack(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 50; i++ {
			if err := tx.Insert(tbl, i, []byte("committed")); err != nil {
				return err
			}
		}
		return nil
	})
	// A transaction that never commits: its effects reach the log
	// buffer and even the data pages (via checkpoint) but must vanish.
	tx := e.Begin()
	for i := uint64(100); i < 120; i++ {
		if err := tx.Insert(tbl, i, []byte("loser")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Update(tbl, 5, []byte("loser-update")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, 6); err != nil {
		t.Fatal(err)
	}
	// Force the dirty pages (with loser data!) to disk, then crash.
	// The flush makes undo do real physical work at restart; the
	// (fuzzy) checkpoint puts the master at or below the loser's first
	// record.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.RecoveryReport.LosersUndone != 1 {
		t.Fatalf("losers undone = %d, want 1 (%+v)", e2.RecoveryReport.LosersUndone, e2.RecoveryReport)
	}
	tbl2, _ := e2.Table("t")
	e2.Exec(func(tx *Txn) error {
		for i := uint64(100); i < 120; i++ {
			if _, err := tx.Read(tbl2, i); !errors.Is(err, ErrNotFound) {
				t.Fatalf("loser insert %d survived: %v", i, err)
			}
		}
		if v, err := tx.Read(tbl2, 5); err != nil || string(v) != "committed" {
			t.Fatalf("loser update survived: %q, %v", v, err)
		}
		if v, err := tx.Read(tbl2, 6); err != nil || string(v) != "committed" {
			t.Fatalf("loser delete survived: %q, %v", v, err)
		}
		return nil
	})
}

func TestRecoveryIdempotent(t *testing.T) {
	// Crash again immediately after recovery; a second recovery must
	// land in the same state (redo is idempotent, CLRs guard undo).
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, _ := OpenWith(Conventional(), store, dev)
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("a")) })
	tx := e.Begin()
	tx.Insert(tbl, 2, []byte("loser"))
	e.Checkpoint()
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	crash(e2) // crash right after recovery, before any new work

	e3, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	tbl3, _ := e3.Table("t")
	e3.Exec(func(tx *Txn) error {
		if v, err := tx.Read(tbl3, 1); err != nil || string(v) != "a" {
			t.Fatalf("key 1: %q, %v", v, err)
		}
		if _, err := tx.Read(tbl3, 2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("loser resurfaced on second recovery: %v", err)
		}
		return nil
	})
}

func TestCrashMidAbortResumesUndo(t *testing.T) {
	// A loser with some CLRs already logged (partial rollback) must
	// complete its rollback at restart without double-undo.
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, _ := OpenWith(Conventional(), store, dev)
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) })

	// Build a loser txn by hand: two updates, then one CLR (as if
	// abort got half-way), then crash.
	tx := e.Begin()
	tx.Update(tbl, 1, []byte("v1"))
	tx.Update(tbl, 1, []byte("v2"))
	// Manually undo the second update with a CLR, mimicking a crash
	// mid-abort.
	last := tx.undo[len(tx.undo)-1]
	inv := last.op.inverse()
	clr, err := e.log.Append(&wal.Record{
		Type: wal.RecCLR, TxnID: tx.id, PrevLSN: tx.lastLSN,
		PageID: uint64(inv.RID.Page), UndoNext: last.prev, Payload: encodeOp(nil, &inv),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyOp(tbl, &inv, uint64(clr)); err != nil {
		t.Fatal(err)
	}
	e.Checkpoint()
	crash(e)

	e2, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, _ := e2.Table("t")
	e2.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl2, 1)
		if err != nil || string(v) != "base" {
			t.Fatalf("mid-abort recovery: %q, %v (want base)", v, err)
		}
		return nil
	})
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			e := memEngine(t, cfg)
			tbl, _ := e.CreateTable("accounts")
			const accounts = 50
			const initial = 1000
			e.Exec(func(tx *Txn) error {
				for i := uint64(0); i < accounts; i++ {
					if err := tx.Insert(tbl, i, encode64(initial)); err != nil {
						return err
					}
				}
				return nil
			})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(w))
					for i := 0; i < 100; i++ {
						from := uint64(src.Intn(accounts))
						to := uint64(src.Intn(accounts))
						if from == to {
							continue
						}
						e.Exec(func(tx *Txn) error {
							// Lock in canonical order to avoid deadlock storms
							// (retries handle the rest).
							a, b := from, to
							if a > b {
								a, b = b, a
							}
							va, err := tx.Read(tbl, a)
							if err != nil {
								return err
							}
							vb, err := tx.Read(tbl, b)
							if err != nil {
								return err
							}
							amount := int64(1 + src.Intn(10))
							fa, fb := decode64(va), decode64(vb)
							if a == from {
								fa -= amount
								fb += amount
							} else {
								fa += amount
								fb -= amount
							}
							if err := tx.Update(tbl, a, encode64(fa)); err != nil {
								return err
							}
							return tx.Update(tbl, b, encode64(fb))
						})
					}
				}(w)
			}
			wg.Wait()
			var total int64
			e.Exec(func(tx *Txn) error {
				return tx.Scan(tbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
					total += decode64(v)
					return true
				})
			})
			if total != accounts*initial {
				t.Fatalf("money not conserved: total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

func encode64(v int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func decode64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

func TestLargeValuesRelocationAcrossPages(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("blobs")
	// Values large enough that growth forces delete+reinsert moves.
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 20; i++ {
			if err := tx.Insert(tbl, i, make([]byte, 3000)); err != nil {
				return err
			}
		}
		return nil
	})
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 20; i++ {
			big := make([]byte, 6000)
			big[0] = byte(i)
			if err := tx.Update(tbl, i, big); err != nil {
				return err
			}
		}
		return nil
	})
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 20; i++ {
			v, err := tx.Read(tbl, i)
			if err != nil || len(v) != 6000 || v[0] != byte(i) {
				t.Fatalf("blob %d: len %d, %v", i, len(v), err)
			}
		}
		return nil
	})
}

func TestFileBackedEngine(t *testing.T) {
	dir := t.TempDir()
	cfg := Conventional()
	cfg.Dir = dir
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 9, []byte("disk")) })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, err := e2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	e2.Exec(func(tx *Txn) error {
		v, err := tx.Read(tbl2, 9)
		if err != nil || string(v) != "disk" {
			t.Fatalf("file reopen: %q, %v", v, err)
		}
		return nil
	})
}

func TestEngineClosedRejectsWork(t *testing.T) {
	e, err := Open(Conventional())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	e.Close()
	if _, err := e.CreateTable("t2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	tx := e.Begin()
	if err := tx.Insert(tbl, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestVerifyCleanAndAfterRecovery(t *testing.T) {
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	e, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	for i := uint64(0); i < 2000; i++ {
		i := i
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, i, encode64(int64(i))) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Exec(func(tx *Txn) error {
		for i := uint64(0); i < 100; i++ {
			if err := tx.Delete(tbl, i*3); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Verify(); err != nil {
		t.Fatalf("clean engine failed verify: %v", err)
	}
	crash(e)
	e2, err := OpenWith(Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Verify(); err != nil {
		t.Fatalf("recovered engine failed verify: %v", err)
	}
}

func TestVerifyDetectsIndexDrift(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, _ := e.CreateTable("t")
	e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v")) })
	// Corrupt: add an index entry with no heap row.
	if err := tbl.Index.Insert(999, 123456); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err == nil {
		t.Fatal("Verify missed a dangling index entry")
	}
}
