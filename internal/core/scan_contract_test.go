//go:build hydradebug

package core

import (
	"fmt"
	"strings"
	"testing"

	"hydra/internal/obs"
)

// TestScanCallbackMustNotCallTheEngine: a Txn.Scan callback runs under
// the index's leaf latch, so one that reads through the engine enters
// the tree (tier 40) holding a frame latch (tier 60). A partition-owned
// scan takes no lock-manager lock, so on a Crabbing index, which takes
// no tree lock either, the tree's rank check at the entry of every
// operation is what catches it. The callback runs on its own goroutine:
// the panic leaves the leaf latch and its hold record behind.
func TestScanCallbackMustNotCallTheEngine(t *testing.T) {
	e := memEngine(t, Scalable())
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error {
		for k := uint64(0); k < 10; k++ {
			if err := tx.Insert(tbl, k, []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin(Intent{Owned: obs.PathDoraSingle})
	defer tx.Abort()
	caught := make(chan string)
	go func() {
		defer func() { caught <- fmt.Sprint(recover()) }()
		tx.Scan(tbl, 0, 10, func(k uint64, _ []byte) bool {
			_, err := tx.Read(tbl, k+1)
			return err == nil
		})
	}()
	const want = "btree.Tree.mu (tier 40) while holding buffer.Frame.Latch (tier 60)"
	if got := <-caught; !strings.Contains(got, "latch-order violation") || !strings.Contains(got, want) {
		t.Fatalf("a scan callback that reads through the engine: recovered %q, want a latch-order violation %q", got, want)
	}
}
