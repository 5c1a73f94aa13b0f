package core

import (
	"bytes"
	"errors"
	"testing"

	"hydra/internal/invariant"
)

// The engine does not keep the slice a caller passes to Update or
// Insert: the server hands it a piece of the connection's read buffer,
// which the next request overwrites. Under every intent that can write,
// the buffer is scribbled over as soon as each call returns — before
// the commit, which is when a snapshot-isolation transaction applies
// its buffered writes — and the rows must read back as they were given.
func TestWritesDoNotAliasCallerBuffer(t *testing.T) {
	for _, tc := range modeCases() {
		if tc.intent.ReadOnly {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := Scalable()
			tc.configure(&cfg)
			e := memEngine(t, cfg)
			tbl, _ := e.CreateTable("t")
			if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("base")) }); err != nil {
				t.Fatal(err)
			}
			want := map[uint64]string{1: "updated twice", 2: "inserted, then updated", 3: "inserted"}
			buf := make([]byte, 0, 64)
			// call passes value in buf and overwrites buf once fn returns.
			call := func(value string, fn func(v []byte) error) error {
				buf = append(buf[:0], value...)
				err := fn(buf)
				for i := range buf {
					buf[i] = '#'
				}
				return err
			}
			if err := e.Exec(func(tx *Txn) error {
				for _, step := range []struct {
					key    uint64
					value  string
					insert bool
				}{
					{1, "updated once", false},
					{2, "inserted", true},
					{3, want[3], true},
					{1, want[1], false},
					{2, want[2], false},
				} {
					if err := call(step.value, func(v []byte) error {
						if step.insert {
							return tx.Insert(tbl, step.key, v)
						}
						return tx.Update(tbl, step.key, v)
					}); err != nil {
						return err
					}
				}
				return nil
			}, tc.intent); err != nil {
				t.Fatal(err)
			}
			if err := e.Exec(func(tx *Txn) error {
				for key, w := range want {
					if v, err := tx.Read(tbl, key); err != nil || string(v) != w {
						t.Errorf("key %d reads %q, %v; want %q", key, v, err, w)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A miss is reported through the same sentinels and with the same text
// as ever, under every intent, although nothing is formatted until
// Error is called; Update on a missing key — the first half of every
// wire SET of a new row — allocates the error and nothing else.
func TestMissingKeyError(t *testing.T) {
	const text = "core: key not found: table t key 9"
	for _, tc := range modeCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Scalable()
			tc.configure(&cfg)
			e := memEngine(t, cfg)
			tbl, _ := e.CreateTable("t")
			tx := e.Begin(tc.intent)
			defer tx.Abort()
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNotFound) || err.Error() != text {
					t.Errorf("%s of a missing key: %v, want ErrNotFound rendered %q", what, err, text)
				}
			}
			_, err := tx.Read(tbl, 9)
			check("Read", err)
			if tc.intent.ReadOnly {
				return
			}
			check("Update", tx.Update(tbl, 9, []byte("v")))
			check("Delete", tx.Delete(tbl, 9))
			if invariant.Enabled || raceEnabled {
				return
			}
			// Under snapshot isolation the snapshot probe and the write
			// set each report the miss.
			most := 1.0
			if tc.snap {
				most = 2
			}
			value := bytes.Repeat([]byte("v"), 100)
			if n := testing.AllocsPerRun(200, func() { err = tx.Update(tbl, 9, value) }); n > most {
				t.Errorf("Update of a missing key: %v allocations, want <= %v", n, most)
			}
		})
	}
}
