package harness

import (
	"fmt"
	"runtime"
	"strings"

	"hydra/internal/obs"
	"hydra/internal/wal"
)

// E2 reproduces the Aether log-scalability result (claim C6): a
// serial log buffer collapses under concurrent insertion, while
// reserving with one atomic add and filling the buffer outside any lock
// (the decoupled fill) keeps aggregate insert bandwidth up.
func E2(s Scale) (*Report, error) {
	recordSize := 120
	rep := &Report{
		ID:    "E2",
		Title: "log insert scalability: serial vs decoupled (Aether)",
		Claim: "C6: parallelism needs to be extracted from seemingly serial operations such as logging",
	}
	tab := &Table{
		Title:   fmt.Sprintf("log inserts/s, %dB payloads (in-memory device)", recordSize),
		Columns: []string{"threads", "serial", "decoupled", "wal_log/insert s/d"},
	}
	for _, threads := range s.Threads() {
		var cells, entries []string
		cells = append(cells, fmt.Sprintf("%d", threads))
		for _, kind := range wal.BufferKinds() {
			log, err := wal.New(wal.NewMem(), wal.Options{
				Kind:        kind,
				BufferSize:  16 << 20,
				SyncOnFlush: false, // isolate the insert path, as Aether's insert microbenchmark does
			})
			if err != nil {
				return nil, err
			}
			payload := make([]byte, recordSize)
			before := walLogEntries()
			ops, dur, err := RunWorkers(threads, s.Window(), func(w int) error {
				_, err := log.Append(&wal.Record{Type: wal.RecUpdate, TxnID: uint64(w), Payload: payload})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("E2 %v: %w", kind, err)
			}
			// Read before Close: the final drain is not an insert's.
			st, entered := log.StatsSnapshot(), walLogEntries()-before
			if err := log.Close(); err != nil {
				return nil, err
			}
			cells = append(cells, F(float64(ops)/dur.Seconds()))
			entries = append(entries, fmt.Sprintf("%.3f", float64(entered)/float64(max(st.Inserts, 1))))
		}
		tab.AddRow(append(cells, strings.Join(entries, "/"))...)
	}
	rep.Tab = append(rep.Tab, tab)

	rep.Notes = append(rep.Notes,
		"expected shape: serial throughput degrades/saturates with threads; decoupled stays flat-to-rising, its copies running in parallel",
		"wal_log/insert is the log's ranked-lock entries of wal.Log.mu per insert, serial/decoupled (the flusher's included): 1/0, since only Serial copies under the mutex and a reservation is one atomic add; an insert enters no other lock",
		fmt.Sprintf("measured with GOMAXPROCS=%d; the many-core side of the shape needs more hardware contexts than this run had; EXPERIMENTS.md E2 says why no model stands in for them", runtime.GOMAXPROCS(0)))
	return rep, nil
}

// walLogEntries returns the process's ranked-lock entries of
// wal.Log.mu so far.
func walLogEntries() uint64 {
	for _, t := range obs.LatchSnapshot() {
		if t.Tier == "wal_log" {
			return t.Ops
		}
	}
	return 0
}
