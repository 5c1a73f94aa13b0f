package harness

import (
	"fmt"
	"slices"

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

	// run measures v on a fresh engine: TPC-B-lite loaded and warmed,
	// one window, then its balance invariants checked.
	run := func(v variant) (float64, error) {
		cfg := core.Scalable()
		v.mut(&cfg)
		e, err := core.Open(cfg)
		if err != nil {
			return 0, err
		}
		defer e.Close()
		w, err := workload.SetupTPCB(e, branches, 10, accounts)
		if err != nil {
			return 0, err
		}
		srcs, x := workerSources("e9"+v.name, threads), workload.TxnExecutor{Engine: e}
		// Warm the pool and runtime before the measured window so every
		// variant starts from comparable state.
		warm := workerSources("e9warm"+v.name, 1)[0]
		for i := 0; i < 3000 && err == nil; i++ {
			err = w.RunOne(warm, x)
		}
		if err != nil {
			return 0, err
		}
		ops, dur, err := RunWorkers(threads, s.Window(), func(wk int) error {
			return w.RunOne(srcs[wk], x)
		})
		if err == nil {
			err = w.Check(e)
		}
		return float64(ops) / dur.Seconds(), err
	}
	// Each trial runs every variant once, in an order rotated from one
	// trial to the next: in one process a fixed order favours some
	// positions (E5's finding), so no variant keeps one. A row reports
	// its median tps and the median of its per-trial ratios: on small
	// hosts a single window is dominated by scheduler and GC luck.
	const trials = 5
	tps := make([][trials]float64, len(variants))
	for trial := 0; trial < trials; trial++ {
		for i := range variants {
			v := (i + trial*len(variants)/trials) % len(variants)
			var err error
			if tps[v][trial], err = run(variants[v]); err != nil {
				return nil, fmt.Errorf("E9 %s: %w", variants[v].name, err)
			}
		}
	}
	for v := range variants {
		all, ratios := tps[v], tps[v]
		for trial := range ratios {
			ratios[trial] /= tps[0][trial]
		}
		slices.Sort(all[:])
		slices.Sort(ratios[:])
		tab.AddRow(variants[v].name, F(all[trials/2]), fmt.Sprintf("%.2fx", ratios[trials/2]))
	}
	rep.Tab = append(rep.Tab, tab)
	rep.Notes = append(rep.Notes,
		"expected shape ON MULTI-CONTEXT HARDWARE: each knockout costs throughput; the constructs whose loss hurts most are the workload's bottlenecks",
		"expected shape ON A SINGLE HARDWARE CONTEXT: several knockouts *help* — spinning, consolidation grouping, and crabbing pay pure overhead when nothing runs in parallel; this is exactly claim C3's tradeoff seen from its other side",
		"each trial runs the variants in a rotated order; vs scalable is the median of the per-trial ratios",
		"TPC-B balance invariants verified for every variant")
	return rep, nil
}
