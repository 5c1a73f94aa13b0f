package harness

import "fmt"

// Experiment is a runnable reproduction unit. Its ID "eN" is the
// EXPERIMENTS.md section "EN" that reports it.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Report, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "TATP: conventional vs DORA", E1},
		{"e2", "log insert scalability (Aether)", E2},
		{"e3", "spin vs block critical sections", E3},
		{"e4", "TPC-B: single-thread vs scalable", E4},
		{"e5", "counted intents vs intent grants at the table head", E5},
		{"e6", "CMP analytical model", E6},
		{"e7", "staged engine shared scans", E7},
		{"e8", "ELR commit path and ARIES restart", E8},
		{"e9", "ablation of the scalable constructs", E9},
		{"e14", "MVCC snapshot reads vs locked reads", E14},
		{"e15", "contention crossover: lock manager vs SI vs DORA", E15},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
