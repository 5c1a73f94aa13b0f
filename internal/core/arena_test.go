package core

import (
	"bytes"
	"testing"
)

// The undo arena of a bulk transaction: a handful of geometrically
// growing chunks instead of one per four rows, slices that stay valid
// while it grows, and a chain the next transaction on the handle reuses
// without allocating — bounded, and unchanged for an OLTP transaction.
func TestUndoArenaChain(t *testing.T) {
	const rows, rec = 500, 1008 // one loader batch
	var tx Txn
	fill := func() [][]byte {
		out := make([][]byte, rows)
		for i := range out {
			out[i] = tx.arenaAlloc(rec)
			for j := range out[i] {
				out[i][j] = byte(i)
			}
		}
		return out
	}
	images := fill()
	for i, img := range images {
		if !bytes.Equal(img, bytes.Repeat([]byte{byte(i)}, rec)) {
			t.Fatalf("row image %d was overwritten while the arena grew", i)
		}
	}
	if n := len(tx.chunks); n < 4 || n > 10 {
		t.Fatalf("%d chunks for %d rows of %d B, want geometric growth (about 8)", n, rows, rec)
	}
	for i := 1; i < len(tx.chunks); i++ {
		if prev, c := cap(tx.chunks[i-1]), cap(tx.chunks[i]); c != min(2*prev, arenaChunkMax) {
			t.Fatalf("chunk %d is %d B after one of %d B", i, c, prev)
		}
	}

	tx.arenaReset()
	total := 0
	for _, c := range tx.chunks {
		total += cap(c)
	}
	if total < rows*rec || total > arenaRetain {
		t.Fatalf("%d B retained after a %d B batch, want the batch covered and at most %d", total, rows*rec, arenaRetain)
	}
	first := &tx.chunks[0][:1][0]
	if got := testing.AllocsPerRun(5, func() {
		for i := 0; i < rows; i++ {
			tx.arenaAlloc(rec)
		}
		tx.arenaReset()
	}); got != 0 {
		t.Fatalf("a second batch on the handle allocates %.0f chunks, want 0", got)
	}
	if &tx.arenaAlloc(8)[0] != first {
		t.Fatal("the next transaction does not start in the first retained chunk")
	}

	// A transaction far larger than the bound leaves only the bound.
	tx.arenaReset()
	for i := 0; i < 4*rows; i++ {
		tx.arenaAlloc(rec)
	}
	tx.arenaReset()
	total = 0
	for _, c := range tx.chunks {
		total += cap(c)
	}
	if total > arenaRetain {
		t.Fatalf("%d B retained, bound is %d", total, arenaRetain)
	}

	// An OLTP transaction: one 4 KiB chunk, kept.
	var small Txn
	small.arenaAlloc(108)
	small.arenaAlloc(108)
	small.arenaReset()
	if len(small.chunks) != 1 || cap(small.chunks[0]) != arenaChunk {
		t.Fatalf("OLTP transaction retains %d chunks (first %d B), want one of %d", len(small.chunks), cap(small.chunks[0]), arenaChunk)
	}
	// A record larger than the retained chunk replaces it.
	big := small.arenaAlloc(6000)
	if len(big) != 6000 || len(small.chunks) != 1 || cap(small.chunks[0]) < 6000 {
		t.Fatalf("oversized record: %d B in a chain of %d chunks", len(big), len(small.chunks))
	}
}
