package harness

import (
	"fmt"
	"runtime"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/workload"
)

// E1 reproduces the DORA result (claim C5): on a short-transaction
// telecom workload, conventional thread-to-transaction execution
// through the centralized lock manager stops scaling, while
// thread-to-data execution keeps climbing.
func E1(s Scale) (*Report, error) {
	// The standard kit scales subscribers with throughput capacity; a
	// moderate table keeps lock conflicts in play (on very large
	// uniform key spaces conflicts vanish and both systems converge).
	subscribers := uint64(2000)
	if s == Full {
		subscribers = 5000
	}
	rep := &Report{
		ID:    "E1",
		Title: "TATP throughput: conventional (centralized locking) vs DORA (thread-to-data)",
		Claim: "C5: decoupling transaction data access from process assignment removes the centralized-locking obstacle",
	}
	tab := &Table{
		Title:   fmt.Sprintf("TATP-lite, %d subscribers, ops/s", subscribers),
		Columns: []string{"threads", "conventional", "dora", "dora/conv"},
	}

	// Conventional system. The cited TATP studies run with the data
	// resident in the buffer pool, so size the pool to the dataset.
	convCfg := core.Conventional()
	convCfg.Frames = 32768
	conv, err := core.Open(convCfg)
	if err != nil {
		return nil, err
	}
	defer conv.Close()
	convW, err := workload.SetupTATP(conv, subscribers)
	if err != nil {
		return nil, err
	}

	// DORA system: scalable substrate, no lock-table usage.
	doraCfg := core.Scalable()
	doraCfg.Frames = 32768
	dcore, err := core.Open(doraCfg)
	if err != nil {
		return nil, err
	}
	defer dcore.Close()
	doraW, err := workload.SetupTATP(dcore, subscribers)
	if err != nil {
		return nil, err
	}

	// Warm both pools so the first sweep cells are not measuring
	// load-time writebacks.
	warm := workerSources("e1warm", 2)
	xw := workload.TxnExecutor{Engine: conv}
	for i := 0; i < 2000; i++ {
		if err := convW.RunOne(warm[0], xw); err != nil {
			return nil, err
		}
	}
	dwarm := dora.New(dcore, dora.Options{Executors: 2, RouteShift: 4})
	xdw := workload.DoraExecutor{Engine: dwarm}
	for i := 0; i < 2000; i++ {
		if err := doraW.RunOne(warm[1], xdw); err != nil {
			dwarm.Close()
			return nil, err
		}
	}
	dwarm.Close()

	for _, threads := range s.Threads() {
		// Conventional cell.
		xc := workload.TxnExecutor{Engine: conv}
		convSrc := workerSources("e1conv", threads)
		convOps, convDur, err := RunWorkers(threads, s.Window(), func(w int) error {
			return convW.RunOne(convSrc[w], xc)
		})
		if err != nil {
			return nil, fmt.Errorf("E1 conventional: %w", err)
		}

		// DORA cell: executor pool sized to the thread budget.
		d := dora.New(dcore, dora.Options{Executors: threads, RouteShift: 4})
		xd := workload.DoraExecutor{Engine: d}
		doraSrc := workerSources("e1dora", threads)
		doraOps, doraDur, err := RunWorkers(threads, s.Window(), func(w int) error {
			return doraW.RunOne(doraSrc[w], xd)
		})
		d.Close()
		if err != nil {
			return nil, fmt.Errorf("E1 dora: %w", err)
		}

		convTPS := float64(convOps) / convDur.Seconds()
		doraTPS := float64(doraOps) / doraDur.Seconds()
		tab.AddRow(fmt.Sprintf("%d", threads), F(convTPS), F(doraTPS),
			fmt.Sprintf("%.2fx", doraTPS/convTPS))
	}
	rep.Tab = append(rep.Tab, tab)
	if err := convW.Check(conv); err != nil {
		return nil, err
	}
	if err := doraW.Check(dcore); err != nil {
		return nil, err
	}

	rep.Notes = append(rep.Notes,
		"expected shape: conventional flattens/degrades as cores grow (lock-table latches serialize); DORA keeps rising and wins past the crossover",
		fmt.Sprintf("measured with GOMAXPROCS=%d; the many-core side of the shape needs more hardware contexts than this run had; EXPERIMENTS.md E1 says why no model stands in for them", runtime.GOMAXPROCS(0)),
		"workload invariants verified after the sweep on both systems")
	return rep, nil
}

// workerSources derives one deterministic stream per worker of a
// sweep cell, so workers never share (mutex-protected) state.
func workerSources(tag string, threads int) []*rng.Source {
	h := uint64(1469598103934665603)
	for _, c := range tag {
		h = (h ^ uint64(c)) * 1099511628211
	}
	out := make([]*rng.Source, threads)
	for w := range out {
		out[w] = rng.New(h ^ uint64(threads)<<32 ^ uint64(w))
	}
	return out
}
