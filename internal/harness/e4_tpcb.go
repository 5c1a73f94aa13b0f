package harness

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/workload"
)

// E4 reproduces the Shore-MT tradeoff (claim C3): the conventional
// configuration — centralized everything, minimal per-operation
// overhead — wins at one thread, but the scalable configuration
// overtakes it as hardware contexts grow; past the crossover,
// favoring scalability wins.
func E4(s Scale) (*Report, error) {
	branches := 4
	accounts := 1000
	if s == Full {
		branches = 8
		accounts = 10000
	}
	rep := &Report{
		ID:    "E4",
		Title: "TPC-B: single-thread-optimized vs scalability-optimized engine",
		Claim: "C3: as the number of hardware contexts grows, favoring scalability wins",
	}
	tab := &Table{
		Title:   fmt.Sprintf("TPC-B-lite tps, %d branches x %d accounts", branches, accounts),
		Columns: []string{"threads", "conventional", "scalable", "scal/conv"},
	}

	systems := []struct {
		name string
		cfg  core.Config
	}{
		{"conventional", core.Conventional()},
		{"scalable", core.Scalable()},
	}
	engines := make([]*core.Engine, len(systems))
	loads := make([]*workload.TPCB, len(systems))
	for i, sys := range systems {
		e, err := core.Open(sys.cfg)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		w, err := workload.SetupTPCB(e, branches, 10, accounts)
		if err != nil {
			return nil, err
		}
		engines[i], loads[i] = e, w
	}

	for _, threads := range s.Threads() {
		tps := make([]float64, len(systems))
		for i := range systems {
			x := workload.TxnExecutor{Engine: engines[i]}
			srcs := workerSources("e4"+systems[i].name, threads)
			ops, dur, err := RunWorkers(threads, s.Window(), func(w int) error {
				return loads[i].RunOne(srcs[w], x)
			})
			if err != nil {
				return nil, fmt.Errorf("E4 %s: %w", systems[i].name, err)
			}
			tps[i] = float64(ops) / dur.Seconds()
		}
		tab.AddRow(fmt.Sprintf("%d", threads), F(tps[0]), F(tps[1]),
			fmt.Sprintf("%.2fx", tps[1]/tps[0]))
	}
	rep.Tab = append(rep.Tab, tab)
	for i := range systems {
		if err := loads[i].Check(engines[i]); err != nil {
			return nil, fmt.Errorf("E4 %s invariant: %w", systems[i].name, err)
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: conventional leads (ratio < 1) at 1 thread — it pays no partitioning overhead — and falls behind (ratio > 1) as threads grow",
		"TPC-B balance invariants verified on both engines after the sweep")
	return rep, nil
}
