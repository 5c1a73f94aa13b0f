package harness

import (
	"fmt"
	"sort"
	"time"

	"hydra/internal/btree"
	"hydra/internal/core"
	"hydra/internal/latch"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// E9 is the ablation study DESIGN.md calls for: starting from the
// fully scalable configuration, each scalable construct is reverted
// to its conventional form in isolation, quantifying how much of the
// end-to-end win each redesign contributes (and confirming none of
// them is a regression in disguise).
func E9(s Scale) (*Report, error) {
	branches := 4
	accounts := 1000
	threads := 8
	if s == Full {
		branches = 8
		accounts = 10000
		threads = 32
	}
	rep := &Report{
		ID:    "E9",
		Title: "ablation: each scalable construct reverted in isolation",
		Claim: "the keynote's thesis: *every* centralized construct needs rethinking, not one",
	}
	tab := &Table{
		Title:   fmt.Sprintf("TPC-B-lite tps at %d threads (%d branches)", threads, branches),
		Columns: []string{"configuration", "tps", "vs scalable"},
	}

	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"scalable (all on)", func(*core.Config) {}},
		{"- consolidated log (serial)", func(c *core.Config) { c.LogKind = wal.Serial }},
		{"- lock partitioning (1 part)", func(c *core.Config) { c.LockPartitions = 1 }},
		{"- buffer sharding (1 shard)", func(c *core.Config) { c.BufferShards = 1 }},
		{"- early lock release", func(c *core.Config) { c.ELR = false }},
		{"- latch crabbing (coarse idx)", func(c *core.Config) { c.IndexMode = btree.Coarse }},
		{"- spinning latches (blocking)", func(c *core.Config) { c.LatchKind = latch.Blocking }},
		{"conventional (all off)", func(c *core.Config) { *c = core.Conventional() }},
	}

	var baseline float64
	for _, v := range variants {
		cfg := core.Scalable()
		v.mut(&cfg)
		e, err := core.Open(cfg)
		if err != nil {
			return nil, err
		}
		w, err := workload.SetupTPCB(e, branches, 10, accounts)
		if err != nil {
			e.Close()
			return nil, err
		}
		srcs := workerSources("e9"+v.name, threads)
		x := workload.TxnExecutor{Engine: e}
		// Warm the pool and runtime before the measured window so every
		// variant starts from comparable state.
		warm := workerSources("e9warm"+v.name, 1)[0]
		for i := 0; i < 3000; i++ {
			if err := w.RunOne(warm, x); err != nil {
				e.Close()
				return nil, err
			}
		}
		// Median of three trials: on small hosts a single window is
		// dominated by scheduler and GC luck.
		var trials []float64
		err = nil
		for trial := 0; trial < 3 && err == nil; trial++ {
			var ops uint64
			var dur time.Duration
			ops, dur, err = RunWorkers(threads, s.Window(), func(wk int) error {
				return w.RunOne(srcs[wk], x)
			})
			trials = append(trials, float64(ops)/dur.Seconds())
		}
		if err == nil {
			err = w.Check(e)
		}
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", v.name, err)
		}
		sort.Float64s(trials)
		tps := trials[len(trials)/2]
		if baseline == 0 {
			baseline = tps
		}
		tab.AddRow(v.name, F(tps), fmt.Sprintf("%.2fx", tps/baseline))
	}
	rep.Tab = append(rep.Tab, tab)
	rep.Notes = append(rep.Notes,
		"expected shape ON MULTI-CONTEXT HARDWARE: each knockout costs throughput; the constructs whose loss hurts most are the workload's bottlenecks",
		"expected shape ON A SINGLE HARDWARE CONTEXT: several knockouts *help* — spinning, consolidation grouping, and crabbing pay pure overhead when nothing runs in parallel; this is exactly claim C3's tradeoff seen from its other side",
		"TPC-B balance invariants verified for every variant")
	return rep, nil
}
