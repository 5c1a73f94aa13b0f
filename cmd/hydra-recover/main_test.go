package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/wal"
)

// A crashed server's wal.log keeps its preallocated tail; the report
// must cover the log's records and bytes, not the file's.
func TestReportOverCrashedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := wal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.New(dev, wal.Options{SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// No dev.Close before the report: closing trims the tail, a crash
	// does not.
	defer dev.Close()
	defer l.Close()
	// Transactions 1 and 2 have the older shape, a begin record first;
	// 3 and 4 the current one, their first change first. Each shape has
	// a winner and a loser, and the report counts them alike.
	row := []byte("row")
	var last wal.LSN
	for _, r := range []wal.Record{
		{Type: wal.RecBegin, TxnID: 1, PrevLSN: wal.NilLSN},
		{Type: wal.RecCommit, TxnID: 1},
		{Type: wal.RecBegin, TxnID: 2, PrevLSN: wal.NilLSN}, // a loser
		{Type: wal.RecUpdate, TxnID: 3, PrevLSN: wal.NilLSN, Payload: row},
		{Type: wal.RecCommit, TxnID: 3},
		{Type: wal.RecUpdate, TxnID: 4, PrevLSN: wal.NilLSN, Payload: row}, // a loser
	} {
		if last, err = l.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitFlushed(last); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report(&out, path, false); err != nil {
		t.Fatal(err)
	}
	logBytes := 4*wal.EncodedSize(0) + 2*wal.EncodedSize(len(row))
	for _, want := range []string{
		fmt.Sprintf("log: %d bytes, 6 records (file continues for", logBytes),
		"transactions: 4 total, 2 complete, 2 losers",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// A log in segments that checkpoints have recycled has no LSN 0, its
// oldest segment starts mid-record, and after a crash its newest ends
// in preallocated space. The report reads it given only the directory.
func TestReportOverRecycledCrashedSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	dev, err := wal.OpenSegmented(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.New(dev, wal.Options{SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close() // after the report, as above
	defer l.Close()
	recLen := wal.LSN(wal.EncodedSize(0))
	const txns = 12
	var last wal.LSN
	for id := uint64(1); id <= txns; id++ {
		if _, err := l.Append(&wal.Record{Type: wal.RecBegin, TxnID: id, PrevLSN: wal.NilLSN}); err != nil {
			t.Fatal(err)
		}
		if id == txns { // the loser
			break
		}
		if last, err = l.Append(&wal.Record{Type: wal.RecCommit, TxnID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitFlushed(last + recLen); err != nil {
		t.Fatal(err)
	}
	// Recycle everything below txn 5's begin record.
	horizon := 8 * recLen
	if n, err := dev.TruncateBefore(horizon); err != nil || n == 0 {
		t.Fatalf("TruncateBefore(%d) removed %d segments, %v", horizon, n, err)
	}
	base := wal.LSN(dev.Base())
	first := (base + recLen - 1) / recLen * recLen // the first record boundary at or above base
	if base == 0 || base == first {
		t.Fatalf("base %d, first record %d: the oldest segment does not start mid-record", base, first)
	}

	var out bytes.Buffer
	if err := report(&out, dir, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("log recycled below %d; first record at %d", base, first),
		fmt.Sprintf("log: %d bytes, %d records (file continues for", (2*txns-1)*recLen, 2*txns-1-int(first/recLen)),
		"1 losers",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
