// Quickstart: open a durable engine, write transactionally, crash,
// and watch ARIES recovery bring everything back.
package main

import (
	"fmt"
	"log"
	"os"

	"hydra/internal/core"
)

func main() {
	dir, err := os.MkdirTemp("", "hydra-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Open a durable engine with the scalable configuration.
	cfg := core.Scalable()
	cfg.Dir = dir
	engine, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. DDL + a few transactions.
	users, err := engine.CreateTable("users")
	if err != nil {
		log.Fatal(err)
	}
	err = engine.Exec(func(tx *core.Txn) error {
		if err := tx.Insert(users, 1, []byte("ada")); err != nil {
			return err
		}
		return tx.Insert(users, 2, []byte("grace"))
	})
	if err != nil {
		log.Fatal(err)
	}

	// An aborted transaction leaves no trace.
	tx := engine.Begin()
	if err := tx.Insert(users, 3, []byte("nobody")); err != nil {
		log.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		log.Fatal(err)
	}

	// 3. Simulate a crash: drop the engine without a clean close.
	//    (The WAL is durable; dirty pages may or may not be.)
	engine.Log().Close()
	fmt.Println("crashed without clean shutdown")

	// 4. Reopen: ARIES restart replays the log.
	engine2, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer engine2.Close()
	rep := engine2.RecoveryReport
	fmt.Printf("recovery: scanned %d log records, redid %d, %d losers undone\n",
		rep.Scanned, rep.Redone, rep.LosersUndone)

	users2, err := engine2.Table("users")
	if err != nil {
		log.Fatal(err)
	}
	err = engine2.Exec(func(tx *core.Txn) error {
		for _, key := range []uint64{1, 2} {
			v, err := tx.Read(users2, key)
			if err != nil {
				return err
			}
			fmt.Printf("user %d = %s\n", key, v)
		}
		if _, err := tx.Read(users2, 3); err == nil {
			return fmt.Errorf("aborted row survived")
		}
		fmt.Println("user 3 correctly absent (transaction aborted)")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Walk the recovered table in primary-key order. Restart rebuilt
	//    the index from the heap, so the scan sees exactly the rows the
	//    log kept.
	var rows int
	err = engine2.Exec(func(tx *core.Txn) error {
		rows = 0
		return tx.Scan(users2, 0, ^uint64(0), func(k uint64, v []byte) bool {
			fmt.Printf("scan: user %d = %s\n", k, v)
			rows++
			return true
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	if rows != 2 {
		log.Fatalf("scan found %d users, want 2", rows)
	}
	fmt.Println("quickstart OK")
}
