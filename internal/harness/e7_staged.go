package harness

import (
	"fmt"
	"time"

	"hydra/internal/core"
	"hydra/internal/staged"
	"hydra/internal/workload"
)

// E7 reproduces the StagedDB/QPipe shared-scan result (claim C7): a
// service-oriented engine that routes all scans of a table through
// one stage can serve N concurrent queries with ~1 physical scan,
// while the query-at-a-time baseline performs N.
func E7(s Scale) (*Report, error) {
	rows := uint64(5000)
	if s == Full {
		rows = 100000
	}
	rep := &Report{
		ID:    "E7",
		Title: "staged query engine: shared scans vs query-at-a-time",
		Claim: "C7: service-oriented architectures provide an excellent framework to exploit available parallelism",
	}
	tab := &Table{
		Title:   fmt.Sprintf("aggregate over %d rows: queries/s and physical scans", rows),
		Columns: []string{"concurrent queries", "private q/s", "shared q/s", "shared/private", "private scans", "shared scans"},
	}

	clients := []int{1, 2, 4, 8}
	if s == Full {
		clients = append(clients, 16, 32)
	}

	// One engine+data per mode, reused across the client sweep.
	engines := make([]*core.Engine, 2)
	stagedEngines := make([]*staged.Engine, 2)
	for i, sharedMode := range []bool{false, true} {
		e, err := core.Open(core.Scalable())
		if err != nil {
			return nil, err
		}
		defer e.Close()
		if _, err := workload.SetupMicro(e, rows, 0, 0, 16); err != nil {
			return nil, err
		}
		engines[i] = e
		stagedEngines[i] = staged.New(e, staged.Options{SharedScans: sharedMode})
	}

	for _, n := range clients {
		var qps [2]float64
		var scans [2]uint64
		for i := range stagedEngines {
			se := stagedEngines[i]
			tbl, err := engines[i].Table("micro_kv")
			if err != nil {
				return nil, err
			}
			before := se.StatsSnapshot()
			done := make(chan error, n)
			start := time.Now()
			for c := 0; c < n; c++ {
				go func() {
					for j := 0; j < queriesPerClient(s); j++ {
						res, err := se.Execute(staged.Query{Table: tbl})
						if err == nil && res.Count != rows {
							err = fmt.Errorf("a query saw %d rows, want %d", res.Count, rows)
						}
						if err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}()
			}
			for c := 0; c < n; c++ {
				if err := <-done; err != nil {
					return nil, fmt.Errorf("E7: %w", err)
				}
			}
			elapsed := time.Since(start)
			after := se.StatsSnapshot()
			qps[i] = float64(n*queriesPerClient(s)) / elapsed.Seconds()
			scans[i] = after.PhysicalScans - before.PhysicalScans
		}
		tab.AddRow(fmt.Sprintf("%d", n),
			F(qps[0]), F(qps[1]), fmt.Sprintf("%.2fx", qps[1]/qps[0]),
			fmt.Sprintf("%d", scans[0]), fmt.Sprintf("%d", scans[1]))
	}
	rep.Tab = append(rep.Tab, tab)
	rep.Notes = append(rep.Notes,
		"expected shape: private-scan throughput decays as concurrent queries contend; shared scans amortize one physical pass over the whole batch, so physical scans stay near-constant while queries grow",
		"every query, private or shared, counted every row")
	return rep, nil
}

func queriesPerClient(s Scale) int {
	if s == Quick {
		return 3
	}
	return 10
}
