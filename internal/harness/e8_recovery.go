package harness

import (
	"fmt"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/hist"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// E8 reproduces the Aether commit-path results and validates restart
// (claim C6's transaction-side half): early lock release stops the
// log-flush latency from extending lock hold times on hot rows, and
// ARIES restart replays a crashed database to a consistent state in
// time linear in the log.
func E8(s Scale) (*Report, error) {
	rep := &Report{
		ID:    "E8",
		Title: "commit path (ELR) and ARIES restart",
		Claim: "C6: logging's serial latency must not serialize the rest of the system",
	}

	// Part A: ELR under a slow log device and a hot key.
	keys := uint64(64) // few keys: every transaction collides
	elr := &Table{
		Title:   "A. hot-key update tps with a 200µs-sync log device",
		Columns: []string{"threads", "ELR off", "ELR on", "on/off", "p99 off", "p99 on"},
	}
	for _, threads := range s.Threads() {
		var tps [2]float64
		var p99 [2]time.Duration
		for i, useELR := range []bool{false, true} {
			cfg := core.Scalable()
			cfg.ELR = useELR
			dev := wal.NewMem()
			dev.SyncFn = func() { time.Sleep(200 * time.Microsecond) }
			e, err := core.OpenWith(cfg, buffer.NewMemStore(), dev)
			if err != nil {
				return nil, err
			}
			w, err := workload.SetupMicro(e, keys, 1.0, 0, 16)
			if err != nil {
				e.Close()
				return nil, err
			}
			samplers := make([]*workload.Sampler, threads)
			hists := make([]*hist.H, threads)
			for j := range samplers {
				samplers[j] = w.NewSampler(uint64(j))
				hists[j] = &hist.H{}
			}
			x := workload.TxnExecutor{Engine: e}
			ops, dur, err := RunWorkers(threads, s.Window(), func(wk int) error {
				t0 := time.Now()
				if err := w.RunOne(samplers[wk], x); err != nil {
					return err
				}
				hists[wk].Observe(time.Since(t0))
				return nil
			})
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("E8 elr=%v: %w", useELR, err)
			}
			tps[i] = float64(ops) / dur.Seconds()
			var all hist.H
			for _, h := range hists {
				all.Merge(h)
			}
			p99[i] = all.Quantile(0.99).Round(time.Microsecond)
		}
		elr.AddRow(fmt.Sprintf("%d", threads), F(tps[0]), F(tps[1]),
			fmt.Sprintf("%.2fx", tps[1]/tps[0]),
			p99[0].String(), p99[1].String())
	}
	rep.Tab = append(rep.Tab, elr)

	// Part B: restart time and work vs log length.
	sizes := []int{1000, 2000, 4000}
	if s == Full {
		sizes = []int{10000, 20000, 40000, 80000}
	}
	rec := &Table{
		Title:   "B. ARIES restart vs committed transactions (one in-flight loser); ckpt = fuzzy checkpoint at 90%",
		Columns: []string{"txns", "ckpt", "analyzed", "restart ms", "redone", "skipped", "losers"},
	}
	for _, n := range sizes {
		for _, useCkpt := range []bool{false, true} {
			store := buffer.NewMemStore()
			dev := wal.NewMem()
			e, err := core.OpenWith(core.Conventional(), store, dev)
			if err != nil {
				return nil, err
			}
			tbl, err := e.CreateTable("t")
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				i := i
				if err := e.Exec(func(tx *core.Txn) error {
					return tx.Insert(tbl, uint64(i), workload.U64(uint64(i)))
				}); err != nil {
					return nil, err
				}
				if useCkpt && i == n*9/10 {
					if err := e.Checkpoint(); err != nil {
						return nil, err
					}
				}
			}
			// One loser in flight at the crash.
			loser := e.Begin()
			if err := loser.Insert(tbl, uint64(n+1000), workload.U64(1)); err != nil {
				return nil, err
			}
			if err := e.Log().Flush(); err != nil {
				return nil, err
			}
			// Crash: abandon the engine without Close.
			e.Log().Close()

			start := time.Now()
			e2, err := core.OpenWith(core.Conventional(), store, dev)
			if err != nil {
				return nil, err
			}
			restart := time.Since(start)
			r := e2.RecoveryReport

			// Verify.
			tbl2, err := e2.Table("t")
			if err != nil {
				return nil, err
			}
			count := 0
			err = e2.Exec(func(tx *core.Txn) error {
				count = 0
				return tx.Scan(tbl2, 0, ^uint64(0), func(uint64, []byte) bool {
					count++
					return true
				})
			})
			e2.Close()
			if err != nil {
				return nil, err
			}
			if count != n {
				return nil, fmt.Errorf("E8 restart (%d txns, ckpt %v): %d rows after restart, want %d", n, useCkpt, count, n)
			}
			rec.AddRow(fmt.Sprintf("%d", n),
				fmt.Sprintf("%v", useCkpt),
				fmt.Sprintf("%d", r.Scanned),
				fmt.Sprintf("%.1f", float64(restart.Microseconds())/1000),
				fmt.Sprintf("%d", r.Redone),
				fmt.Sprintf("%d", r.SkippedByLSN),
				fmt.Sprintf("%d", r.LosersUndone))
		}
	}
	rep.Tab = append(rep.Tab, rec)
	rep.Notes = append(rep.Notes,
		"A expected shape: with ELR, lock hold time excludes the flush wait, so hot-key throughput rises with offered concurrency instead of being pinned at 1/(sync latency)",
		"B expected shape: restart time grows linearly with the analyzed log; a fuzzy checkpoint shrinks the analysis window sharply; every committed row present and the loser's row absent after each restart, or the experiment fails")
	return rep, nil
}
