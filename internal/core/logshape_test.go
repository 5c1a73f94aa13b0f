package core

import (
	"errors"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/wal"
)

// A transaction logs its changes and one outcome: no begin record, and
// nothing after its commit record. An autocommit update appends two
// records; an update or delete that finds no row appends none and
// leaves nothing in the live registry; an abort still writes its abort
// record, a CLR per change and its end record.
func TestTxnLogsChangesAndOneOutcome(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			dev := wal.NewMem()
			e, err := OpenWith(cfg, buffer.NewMemStore(), dev)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tbl, _ := e.CreateTable("t")
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v1")) }); err != nil {
				t.Fatal(err)
			}
			inserts := func() uint64 { return e.StatsSnapshot().Log.Inserts }

			n := inserts()
			if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("v2")) }); err != nil {
				t.Fatal(err)
			}
			if d := inserts() - n; d != 2 {
				t.Errorf("an autocommit update appended %d records, want 2 (update, commit)", d)
			}

			for verb, fn := range map[string]func(*Txn) error{
				"update": func(tx *Txn) error { return tx.Update(tbl, 99, []byte("x")) },
				"delete": func(tx *Txn) error { return tx.Delete(tbl, 99) },
			} {
				n := inserts()
				if err := e.Exec(fn); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s of a missing key: %v, want ErrNotFound", verb, err)
				}
				if d := inserts() - n; d != 0 {
					t.Errorf("%s of a missing key appended %d records, want none", verb, d)
				}
				e.liveMu.Lock()
				live := len(e.live)
				e.liveMu.Unlock()
				if live != 0 {
					t.Errorf("%s of a missing key left %d transactions registered", verb, live)
				}
			}

			tx := e.Begin()
			if err := tx.Update(tbl, 1, []byte("v3")); err != nil {
				t.Fatal(err)
			}
			loser := tx.id
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := e.log.Flush(); err != nil {
				t.Fatal(err)
			}

			sc, err := wal.NewScanner(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			committed := map[uint64]bool{}
			var aborted []wal.RecType
			for sc.Next() {
				r := sc.Record()
				switch {
				case r.Type == wal.RecBegin:
					t.Errorf("begin record at %d (txn %d)", r.LSN, r.TxnID)
				case committed[r.TxnID]:
					t.Errorf("%v record at %d after txn %d's commit", r.Type, r.LSN, r.TxnID)
				case r.Type == wal.RecCommit:
					committed[r.TxnID] = true
				case r.TxnID == loser:
					aborted = append(aborted, r.Type)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(committed) != 2 {
				t.Errorf("%d commit records, want 2 (the insert, the update)", len(committed))
			}
			want := []wal.RecType{wal.RecUpdate, wal.RecAbort, wal.RecCLR, wal.RecEnd}
			if len(aborted) != len(want) {
				t.Fatalf("aborted transaction logged %v, want %v", aborted, want)
			}
			for i := range want {
				if aborted[i] != want[i] {
					t.Fatalf("aborted transaction logged %v, want %v", aborted, want)
				}
			}
		})
	}
}
