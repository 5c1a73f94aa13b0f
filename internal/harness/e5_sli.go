package harness

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/lock"
	"hydra/internal/workload"
)

// E5 reproduces claim C5's locking half: hot intent locks — acquired
// by every transaction on every table it touches — are exactly the
// lock-manager traffic that serializes the system. The scalable manager
// keeps them out of the lock table as counts on one word per table
// (lock/counter.go); Speculative Lock Inheritance lets agent threads
// carry them across transaction boundaries, off even that word.
func E5(s Scale) (*Report, error) {
	keys := uint64(5000)
	if s == Full {
		keys = 100000
	}
	rep := &Report{
		ID:    "E5",
		Title: "Counted intents and Speculative Lock Inheritance: hot intent locks bypass the lock table",
		Claim: "C5: typical obstacles are by-definition centralized operations, such as locking",
	}
	tab := &Table{
		Title:   fmt.Sprintf("zipf(0.9) microbenchmark over %d keys, 20%% writes", keys),
		Columns: []string{"threads", "counter tps", "SLI tps", "counter tableops/op", "SLI tableops/op"},
	}

	for _, threads := range s.Threads() {
		row := []string{fmt.Sprintf("%d", threads)}
		var tableOps [2]float64
		for pass, useSLI := range []bool{false, true} {
			e, err := core.Open(core.Scalable())
			if err != nil {
				return nil, err
			}
			w, err := workload.SetupMicro(e, keys, 0.2, 0.9, 32)
			if err != nil {
				e.Close()
				return nil, err
			}
			before := e.StatsSnapshot().Lock

			agents := make([]*lock.Agent, threads)
			execs := make([]workload.Executor, threads)
			samplers := make([]*workload.Sampler, threads)
			for i := range agents {
				if useSLI {
					agents[i] = e.Locks().NewAgent()
				}
				execs[i] = workload.TxnExecutor{Engine: e, Intent: core.Intent{Agent: agents[i]}}
				samplers[i] = w.NewSampler(uint64(1000*threads + i))
			}
			ops, dur, err := RunWorkers(threads, s.Window(), func(wk int) error {
				return w.RunOne(samplers[wk], execs[wk])
			})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("E5 sli=%v: %w", useSLI, err)
			}
			after := e.StatsSnapshot().Lock
			if ops > 0 {
				tableOps[pass] = float64(after.TableOps-before.TableOps) / float64(ops)
			}
			for _, a := range agents {
				if a != nil {
					a.Close()
				}
			}
			e.Close()
			row = append(row, F(float64(ops)/dur.Seconds()))
		}
		row = append(row,
			fmt.Sprintf("%.2f", tableOps[0]),
			fmt.Sprintf("%.2f", tableOps[1]))
		tab.AddRow(row...)
	}
	rep.Tab = append(rep.Tab, tab)
	rep.Notes = append(rep.Notes,
		"expected shape: 1.00 lock-table operation per transaction in both columns (the counter takes the table IS/IX with a CAS on the table's word, the agent keeps it; only the row lock visits the table); SLI skips the word's two atomics, the counter needs no agent",
		"row locks and table S/SIX/X are never kept; only table intent locks are speculation-worthy")
	return rep, nil
}
