package harness

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/workload"
)

// E5 reproduces claim C5's locking half: hot intent locks — acquired
// by every transaction on every table it touches — are exactly the
// lock-manager traffic that serializes the system. The scalable manager
// keeps them out of the lock table as counts on one word per table
// (lock/counter.go); under one lock partition they are grants at the
// table's head, as in the conventional design.
func E5(s Scale) (*Report, error) {
	keys := uint64(5000)
	if s == Full {
		keys = 100000
	}
	rep := &Report{
		ID:    "E5",
		Title: "Counted intents: hot intent locks bypass the lock table",
		Claim: "C5: typical obstacles are by-definition centralized operations, such as locking",
	}
	tab := &Table{
		Title:   fmt.Sprintf("zipf(0.9) microbenchmark over %d keys, 20%% writes", keys),
		Columns: []string{"threads", "head tps", "counter tps", "head tableops/op", "counter tableops/op"},
	}
	head := core.Scalable()
	head.LockPartitions = 1
	columns := []core.Config{head, core.Scalable()}

	for r, threads := range s.Threads() {
		var tps, tableOps [2]float64
		// A column run second in one process is favoured, so the order
		// alternates from one thread row to the next.
		for pass := range columns {
			c := (pass + r) % 2
			e, err := core.Open(columns[c])
			if err != nil {
				return nil, err
			}
			w, err := workload.SetupMicro(e, keys, 0.2, 0.9, 32)
			if err != nil {
				e.Close()
				return nil, err
			}
			before := e.StatsSnapshot().Lock
			x := workload.TxnExecutor{Engine: e}
			samplers := make([]*workload.Sampler, threads)
			for i := range samplers {
				samplers[i] = w.NewSampler(uint64(1000*threads + i))
			}
			ops, dur, err := RunWorkers(threads, s.Window(), func(wk int) error {
				return w.RunOne(samplers[wk], x)
			})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("E5 %s: %w", tab.Columns[1+c], err)
			}
			after := e.StatsSnapshot().Lock
			if ops > 0 {
				tableOps[c] = float64(after.TableOps-before.TableOps) / float64(ops)
			}
			e.Close()
			tps[c] = float64(ops) / dur.Seconds()
		}
		tab.AddRow(fmt.Sprintf("%d", threads), F(tps[0]), F(tps[1]),
			fmt.Sprintf("%.2f", tableOps[0]),
			fmt.Sprintf("%.2f", tableOps[1]))
	}
	rep.Tab = append(rep.Tab, tab)
	rep.Notes = append(rep.Notes,
		"expected shape: 2.00 lock-table operations per transaction in the head column (the table IS/IX and the row) and 1.00 in the counter column (the table intent is a CAS on the table's word; only the row lock visits the table)",
		"the head column's one lock partition also re-centralises the row locks, so its tps gap is an upper bound on what the counter alone saves",
		"the two columns run in alternating order from one thread row to the next, since the column run second in one process is favoured")
	return rep, nil
}
