package harness

import (
	"errors"
	"fmt"
	"runtime"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/txnsim"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// E15 is the contention crossover of the three execution models (and
// the DORA crossover EXPERIMENTS.md E13 reports): one read-modify-write
// mix, with an increasing fraction of it landing on a tiny hot set, runs
// four ways per hot-set fraction —
//
//   - lock-mgr: the conventional engine's centralized lock manager;
//   - locked: the scalable engine's 2PL path, the X lock held across
//     the whole read-modify-write;
//   - si: snapshot-isolation writers on the same engine (lock-free
//     snapshot read, buffered write, first-committer-wins validation
//     that holds the row lock only for the validate+apply window);
//   - dora: thread-to-data executors, no lock table at all, each
//     transaction shipped to the hot row's owner as one job.
//
// At low skew DORA pays its dispatch and SI its validation for
// nothing; as the hot set concentrates the lock manager queues, SI pays
// in conflict aborts instead of lock waits (the conflict-rate column),
// and DORA serializes the hot rows on their executor.
func E15(s Scale) (*Report, error) {
	keys := uint64(8000)
	hotFracs := []float64{0, 0.5, 0.9, 0.95}
	if s == Full {
		keys = 20000
		hotFracs = []float64{0, 0.2, 0.5, 0.8, 0.9, 0.95}
	}
	const (
		hotKeys   = 8
		writeFrac = 0.8
	)
	threads := microWorkers()
	rep := &Report{
		ID:    "E15",
		Title: "contention crossover: centralized locking vs SI writers vs DORA as skew rises",
		Claim: "C5: thread-to-data execution wins exactly where centralized locking collapses, and optimistic validation keeps writers off the lock manager until conflicts are real — the abort rate, not lock waits, is its contention bill",
	}
	tab := &Table{
		Title: fmt.Sprintf("micro RMW (%d keys, %d hot, %.0f%% writes, %d workers), ops/s",
			keys, hotKeys, writeFrac*100, threads),
		Columns: []string{"hot-frac", "lock-mgr", "locked", "si", "dora", "dora/lock", "si/locked", "si-conflict-rate"},
	}

	// One engine per model: conventional for the lock-manager column;
	// scalable with MVCC for the locked and SI columns (identical
	// version-install cost, only the write protocol varies); scalable
	// for DORA, whose lock table is never touched.
	type system struct {
		e *core.Engine
		w *workload.Micro
	}
	var conv, mv, ds system
	mvCfg := core.Scalable()
	mvCfg.MVCC = true
	for _, p := range []struct {
		sys *system
		cfg core.Config
	}{{&conv, core.Conventional()}, {&mv, mvCfg}, {&ds, core.Scalable()}} {
		p.cfg.Frames = 32768
		e, err := core.Open(p.cfg)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		w, err := workload.SetupMicro(e, keys, writeFrac, 0, 16)
		if err != nil {
			return nil, err
		}
		w.HotKeys = hotKeys
		*p.sys = system{e, w}
	}

	runCell := func(name string, w *workload.Micro, x workload.Executor, seed uint64) (float64, error) {
		src := make([]*workload.Sampler, threads)
		for i := range src {
			src[i] = w.NewSampler(uint64(i)<<8 ^ seed)
		}
		ops, dur, err := RunWorkers(threads, s.Window(), func(wk int) error {
			for {
				// An SI write that lost first-committer-wins on every
				// retry is a measured abort, not a harness failure; it
				// simply contributes no op.
				if err := w.RunOne(src[wk], x); !errors.Is(err, core.ErrWriteConflict) {
					return err
				}
			}
		})
		if err != nil {
			return 0, fmt.Errorf("E15 %s (hot %.2f): %w", name, w.HotFrac, err)
		}
		return float64(ops) / dur.Seconds(), nil
	}

	var rates, groups []string
	for _, hotFrac := range hotFracs {
		conv.w.HotFrac, mv.w.HotFrac, ds.w.HotFrac = hotFrac, hotFrac, hotFrac
		seed := uint64(hotFrac*1000) << 16

		lockTPS, err := runCell("lock-mgr", conv.w, workload.TxnExecutor{Engine: conv.e}, seed)
		if err != nil {
			return nil, err
		}

		mv.w.SIFrac = 0
		start := mv.e.StatsSnapshot()
		lockedTPS, err := runCell("locked", mv.w, workload.TxnExecutor{Engine: mv.e}, seed)
		if err != nil {
			return nil, err
		}

		mv.w.SIFrac = 1
		before := mv.e.StatsSnapshot()
		siTPS, err := runCell("si", mv.w, workload.TxnExecutor{Engine: mv.e}, seed^0x5151)
		if err != nil {
			return nil, err
		}
		after := mv.e.StatsSnapshot()
		commits := after.Mvcc.SICommits - before.Mvcc.SICommits
		conflicts := after.Mvcc.SIConflictAborts - before.Mvcc.SIConflictAborts
		rate := 0.0
		if commits+conflicts > 0 {
			rate = float64(conflicts) / float64(commits+conflicts)
		}

		d := dora.New(ds.e, dora.Options{Executors: threads})
		doraTPS, err := runCell("dora", ds.w, workload.DoraExecutor{Engine: d}, seed)
		d.Close()
		if err != nil {
			return nil, err
		}

		tab.AddRow(fmt.Sprintf("%.2f", hotFrac), F(lockTPS), F(lockedTPS), F(siTPS), F(doraTPS),
			fmt.Sprintf("%.2fx", doraTPS/lockTPS),
			fmt.Sprintf("%.2fx", siTPS/lockedTPS),
			fmt.Sprintf("%.1f%%", rate*100))
		rates = append(rates, fmt.Sprintf("%.2f: %.1f%%", hotFrac, rate*100))
		groups = append(groups, fmt.Sprintf("%.2f: %.4f/%.4f", hotFrac,
			groupInsertRatio(start.Log, before.Log), groupInsertRatio(before.Log, after.Log)))
	}
	rep.Tab = append(rep.Tab, tab)

	// Every engine conserves the per-key write counters: no lock, SI
	// validation or executor let two increments of one row race.
	for _, sys := range []system{conv, mv, ds} {
		if err := sys.w.Check(sys.e); err != nil {
			return nil, fmt.Errorf("E15: %w", err)
		}
	}

	// The measured table cannot show the multi-core side of the
	// crossover on a narrow machine: lock-manager latch contention and
	// parked-waiter convoys need critical sections from different
	// hardware contexts genuinely overlapping. The discrete-event
	// simulator regenerates that shape deterministically, against the
	// strongest conventional baseline (a 16-way partitioned lock
	// table), on a simulated 8-core CMP.
	simFracs := []float64{0, 0.2, 0.5, 0.8, 0.95}
	simP := txnsim.DefaultParams(8)
	simP.LockPartitions = 16
	simConv, simDora := txnsim.SweepSkew(simP, 8, simFracs, 40000)
	simTab := &Table{
		Title:   "simulated 8-core CMP, 16-way partitioned lock table, txns per Mcycle",
		Columns: []string{"hot-frac", "lock-mgr", "dora", "dora/lock", "lock-wait"},
	}
	for i, h := range simFracs {
		simTab.AddRow(fmt.Sprintf("%.2f", h),
			F(simConv[i].TxnsPerMCycle), F(simDora[i].TxnsPerMCycle),
			fmt.Sprintf("%.2fx", simDora[i].TxnsPerMCycle/simConv[i].TxnsPerMCycle),
			fmt.Sprintf("%.0f%%", simConv[i].LockWaitFrac*100))
	}
	rep.Tab = append(rep.Tab, simTab)

	st := mv.e.StatsSnapshot()
	rep.Notes = append(rep.Notes,
		"expected shape: dora/lock < 1 at hot-frac 0 (dispatch overhead, no contention to remove) and > 1 on the right edge (hot rows serialize on their executor instead of the lock manager); si/locked ≈ 1 at hot-frac 0 (validation is cheap, conflicts absent) and degrading as the hot set concentrates, with the conflict-rate column climbing in step — the locked cell pays the same contention as lock waits instead",
		fmt.Sprintf("si conflict-abort rate by hot-frac: %v (commit attempts lost to first-committer-wins, after Exec's retries succeeded or gave up)", rates),
		fmt.Sprintf("si totals: begins=%d commits=%d conflict_aborts=%d; lock_bypasses=%d (reads the SI path never sent to the lock manager)",
			st.Mvcc.SIBegins, st.Mvcc.SICommits, st.Mvcc.SIConflictAborts, st.Lock.Bypasses),
		fmt.Sprintf("locked/si group-insert ratio by hot-frac: %v (log records of the MVCC engine that joined a consolidation group another record led)", groups),
		"write counters conserved on all three engines",
		fmt.Sprintf("ran with GOMAXPROCS=%d; wider machines push the measured crossover left", runtime.GOMAXPROCS(0)),
		"simulated table: skew re-concentrates latch traffic on the hot rows' stripes and every contended row transfer costs a park/unpark, while DORA's hot executor serves its backlog by batched drain — no lock manager anywhere on the path")
	return rep, nil
}

// groupInsertRatio is the share of the log records inserted between a
// and b that joined a consolidation group another record led.
func groupInsertRatio(a, b wal.Stats) float64 {
	if n := b.Inserts - a.Inserts; n > 0 {
		return float64(b.GroupInserts-a.GroupInserts) / float64(n)
	}
	return 0
}
