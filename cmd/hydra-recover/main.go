// Command hydra-recover inspects a hydra write-ahead log: it scans
// the records, prints a per-transaction summary, and reports what an
// ARIES restart would do (winners, losers, torn tail). Restart finds
// its losers the same way, in the log itself: a checkpoint records
// only where its analysis starts (hydra-dump prints it), never a list
// of open transactions.
//
// Usage:
//
//	hydra-recover -log /path/to/wal.log [-v]
//	hydra-recover -log /path/to/wal [-v]     (a directory of segments)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hydra/internal/wal"
)

func main() {
	path := flag.String("log", "", "path to wal.log, or to a directory of log segments")
	verbose := flag.Bool("v", false, "print every record")
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "hydra-recover: -log is required")
		os.Exit(2)
	}
	if err := report(os.Stdout, *path, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "hydra-recover: %v\n", err)
		os.Exit(1)
	}
}

// openLog opens the flat log file, or the directory of segments, at
// path.
func openLog(path string) (*wal.FileDevice, error) {
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		return wal.OpenFile(path)
	}
	size, err := wal.SegmentSize(path)
	if err != nil {
		return nil, err
	}
	return wal.OpenSegmented(path, size)
}

// report scans the log at path and writes the summary to w. The log
// is only read: a crashed server's keeps its preallocated tail.
func report(w io.Writer, path string, verbose bool) error {
	dev, err := openLog(path)
	if err != nil {
		return err
	}
	defer dev.Close()

	// A recycled log starts at its oldest segment, which starts
	// mid-record.
	base := wal.LSN(dev.Base())
	sc, err := wal.NewScanner(dev, base)
	if err != nil {
		return err
	}
	if base > 0 && sc.SeekRecord() {
		fmt.Fprintf(w, "log recycled below %d; first record at %d\n", base, sc.Pos())
	}
	type txnSum struct {
		records   int
		committed bool
		ended     bool
	}
	txns := map[uint64]*txnSum{}
	byType := map[wal.RecType]int{}
	total := 0
	for sc.Next() {
		r := sc.Record()
		total++
		byType[r.Type]++
		if verbose {
			fmt.Fprintf(w, "%10d  %-10s txn=%-6d prev=%d page=%d payload=%dB\n",
				r.LSN, r.Type, r.TxnID, int64(r.PrevLSN), r.PageID, len(r.Payload))
		}
		if r.TxnID == 0 {
			continue
		}
		ts := txns[r.TxnID]
		if ts == nil {
			ts = &txnSum{}
			txns[r.TxnID] = ts
		}
		ts.records++
		switch r.Type {
		case wal.RecCommit:
			ts.committed = true
		case wal.RecEnd:
			ts.ended = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("log corrupt: %w", err)
	}
	// The log is what the scan found; the file may run on past it.
	fmt.Fprintf(w, "log: %d bytes, %d records", sc.Pos(), total)
	if size, _ := dev.Size(); int64(sc.Pos()) < size {
		fmt.Fprintf(w, " (file continues for %d bytes: preallocated space or a torn record)", size-int64(sc.Pos()))
	}
	fmt.Fprintln(w)

	var types []wal.RecType
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Fprintf(w, "  %-10s %d\n", t, byType[t])
	}

	winners, losers := 0, 0
	for _, ts := range txns {
		if ts.committed || ts.ended {
			winners++
		} else {
			losers++
		}
	}
	fmt.Fprintf(w, "transactions: %d total, %d complete, %d losers (would be rolled back at restart)\n",
		len(txns), winners, losers)
	return nil
}
