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
	var last wal.LSN
	for _, r := range []wal.Record{
		{Type: wal.RecBegin, TxnID: 1, PrevLSN: wal.NilLSN},
		{Type: wal.RecCommit, TxnID: 1},
		{Type: wal.RecBegin, TxnID: 2, PrevLSN: wal.NilLSN}, // a loser
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
	logBytes := 3 * wal.EncodedSize(0)
	for _, want := range []string{
		fmt.Sprintf("log: %d bytes, 3 records (file continues for", logBytes),
		"transactions: 2 total, 1 complete, 1 losers",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
