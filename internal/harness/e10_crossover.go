package harness

import (
	"fmt"
	"runtime"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/txnsim"
	"hydra/internal/workload"
)

// E10 locates the contention crossover between the two execution
// models: as an increasing fraction of a read-modify-write mix lands
// on a tiny hot set, the conventional path queues on the centralized
// lock manager (hot lock heads, deadlock retries), while DORA
// serializes the hot rows on their owning executor with no lock-table
// interaction at all — the single-partition fast path ships each
// transaction as one job. At low skew DORA pays its dispatch overhead
// for nothing; the experiment reports where that trade flips.
func E10(s Scale) (*Report, error) {
	keys := uint64(8000)
	if s == Full {
		keys = 20000
	}
	const (
		hotKeys   = 8
		writeFrac = 0.8
	)
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	if threads < 2 {
		threads = 2
	}
	rep := &Report{
		ID:    "E10",
		Title: "contention crossover: shared lock manager vs DORA as skew rises",
		Claim: "C5: thread-to-data execution wins exactly where centralized locking collapses — on the contended tail",
	}
	tab := &Table{
		Title: fmt.Sprintf("micro RMW (%d keys, %d hot, %.0f%% writes, %d workers), ops/s",
			keys, hotKeys, writeFrac*100, threads),
		Columns: []string{"hot-frac", "lock-mgr", "dora", "dora/lock"},
	}

	// Conventional substrate for the lock-manager cells; scalable
	// substrate for DORA (its lock table is never touched).
	convCfg := core.Conventional()
	convCfg.Frames = 32768
	conv, err := core.Open(convCfg)
	if err != nil {
		return nil, err
	}
	defer conv.Close()
	convW, err := workload.SetupMicro(conv, keys, writeFrac, 0, 16)
	if err != nil {
		return nil, err
	}
	convW.HotKeys = hotKeys

	doraCfg := core.Scalable()
	doraCfg.Frames = 32768
	dcore, err := core.Open(doraCfg)
	if err != nil {
		return nil, err
	}
	defer dcore.Close()
	doraW, err := workload.SetupMicro(dcore, keys, writeFrac, 0, 16)
	if err != nil {
		return nil, err
	}
	doraW.HotKeys = hotKeys

	for _, hotFrac := range []float64{0, 0.2, 0.5, 0.8, 0.95} {
		convW.HotFrac = hotFrac
		doraW.HotFrac = hotFrac

		xc := workload.TxnExecutor{Engine: conv}
		convSrc := make([]*workload.Sampler, threads)
		for w := range convSrc {
			convSrc[w] = convW.NewSampler(uint64(w) ^ uint64(hotFrac*1000)<<16)
		}
		convOps, convDur, err := RunWorkers(threads, s.Window(), func(w int) (uint64, error) {
			var n uint64
			for i := 0; i < 32; i++ {
				if err := convW.RunOne(convSrc[w], xc); err != nil {
					return n, err
				}
				n++
			}
			return n, nil
		})
		if err != nil {
			return nil, fmt.Errorf("E10 lock-mgr (hot %.2f): %w", hotFrac, err)
		}

		d := dora.New(dcore, dora.Options{Executors: threads})
		xd := workload.DoraExecutor{Engine: d}
		doraSrc := make([]*workload.Sampler, threads)
		for w := range doraSrc {
			doraSrc[w] = doraW.NewSampler(uint64(w) ^ uint64(hotFrac*1000)<<16)
		}
		doraOps, doraDur, err := RunWorkers(threads, s.Window(), func(w int) (uint64, error) {
			var n uint64
			for i := 0; i < 32; i++ {
				if err := doraW.RunOne(doraSrc[w], xd); err != nil {
					return n, err
				}
				n++
			}
			return n, nil
		})
		d.Close()
		if err != nil {
			return nil, fmt.Errorf("E10 dora (hot %.2f): %w", hotFrac, err)
		}

		convTPS := float64(convOps) / convDur.Seconds()
		doraTPS := float64(doraOps) / doraDur.Seconds()
		tab.AddRow(fmt.Sprintf("%.2f", hotFrac), F(convTPS), F(doraTPS),
			fmt.Sprintf("%.2fx", doraTPS/convTPS))
	}
	rep.Tab = append(rep.Tab, tab)

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

	// Both systems must conserve the per-key write counters.
	for _, p := range []struct {
		w *workload.Micro
		e *core.Engine
	}{{convW, conv}, {doraW, dcore}} {
		if _, err := p.w.TotalWrites(p.e); err != nil {
			return nil, err
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: dora/lock < 1 at hot-frac 0 (dispatch overhead, no contention to remove) and > 1 on the right edge (hot rows serialize on their executor instead of the lock manager)",
		fmt.Sprintf("ran with GOMAXPROCS=%d; wider machines push the measured crossover left", runtime.GOMAXPROCS(0)),
		"simulated table: skew re-concentrates latch traffic on the hot rows' stripes and every contended row transfer costs a park/unpark, while DORA's hot executor serves its backlog by batched drain — no lock manager anywhere on the path")
	return rep, nil
}
