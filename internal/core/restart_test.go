package core

import (
	"fmt"
	"runtime"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/invariant"
	"hydra/internal/wal"
)

// restartAlloc loads 2 000 rows, runs updates autocommitted updates over
// them, crashes, and returns the bytes OpenWith allocates to restart.
func restartAlloc(t *testing.T, updates int) uint64 {
	t.Helper()
	store, dev := buffer.NewMemStore(), wal.NewMem()
	e, err := OpenWith(Conventional(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t")
	const rows = 2000
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < rows; k++ {
			if err := tx.Insert(tbl, k, []byte("row")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < updates; i++ {
		value := fmt.Appendf(nil, "update %d", i)
		if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, uint64(i%rows), value) }); err != nil {
			t.Fatal(err)
		}
	}
	crash(e)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e2, err := OpenWith(Conventional(), store, dev)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep := e2.RecoveryReport; rep.Committed != updates+1 || rep.IndexEntries != rows {
		t.Fatalf("restart report %+v after %d updates", rep, updates)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// Restart streams the log and keeps nothing per record: what it
// allocates does not grow with the log it replays.
func TestRestartMemoryIndependentOfLogLength(t *testing.T) {
	if testing.Short() || raceEnabled || invariant.Enabled {
		t.Skip("125 000 transactions; allocation counts need the plain build")
	}
	short, long := restartAlloc(t, 25_000), restartAlloc(t, 100_000)
	t.Logf("restart allocated %d KiB after 25 000 updates, %d KiB after 100 000", short>>10, long>>10)
	if long > short+2<<20 {
		t.Fatalf("restart allocated %d KiB after 100 000 updates, %d KiB after 25 000: it grows with the log", long>>10, short>>10)
	}
}
