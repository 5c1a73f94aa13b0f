package dora

import (
	"sync"

	"hydra/internal/hist"
)

// Counters are the cumulative executor counters; the tags define each
// metric for every surface (DESIGN.md §7).
type Counters struct {
	// ActionsExecuted counts action bodies run, on executors or by a
	// cross-partition coordinator.
	ActionsExecuted uint64 `json:"actions_executed" metric:"name=hydra_dora_actions_total"`
	// SinglePartition counts transactions shipped whole (fast path).
	SinglePartition uint64 `json:"single_partition_txns" metric:"name=hydra_dora_txns_total,label=path:single"`
	// CrossPartition counts transactions through the coordinator.
	CrossPartition uint64 `json:"cross_partition_txns" metric:"name=hydra_dora_txns_total,label=path:cross"`
	// Batches counts executor inbox drains; BatchedJobs the jobs they
	// moved. BatchedJobs/Batches is the amortization factor.
	Batches     uint64 `json:"batches"`
	BatchedJobs uint64 `json:"batched_jobs"`
}

// Stats reports executor activity.
type Stats struct {
	Counters
	// QueueDepths is the instantaneous backlog per executor;
	// QueueCaps the matching inbox capacities (the flight recorder
	// compares them to detect executors pinned at capacity).
	QueueDepths []int
	QueueCaps   []int
	// Service is the distribution of action body runtimes; Wait the
	// enqueue-to-dispatch inbox delay of whole transactions and claims.
	Service hist.H
	Wait    hist.H
}

// StatsSnapshot returns cumulative counters.
func (d *Engine) StatsSnapshot() Stats {
	s := Stats{
		Counters: Counters{
			ActionsExecuted: d.executed.Load(),
			SinglePartition: d.singleTxns.Load(),
			CrossPartition:  d.crossTxns.Load(),
			Batches:         d.batches.Load(),
			BatchedJobs:     d.batchedJobs.Load(),
		},
		QueueDepths: make([]int, len(d.exec)),
		QueueCaps:   make([]int, len(d.exec)),
		Service:     d.service.Snapshot(),
		Wait:        d.wait.Snapshot(),
	}
	for i, ex := range d.exec {
		s.QueueDepths[i] = ex.queue.Len()
		s.QueueCaps[i] = ex.queue.Cap()
	}
	return s
}

// merge folds other into s (for the process-global aggregate).
func (s *Stats) merge(other Stats) {
	s.ActionsExecuted += other.ActionsExecuted
	s.SinglePartition += other.SinglePartition
	s.CrossPartition += other.CrossPartition
	s.Batches += other.Batches
	s.BatchedJobs += other.BatchedJobs
	for i, dep := range other.QueueDepths {
		if i < len(s.QueueDepths) {
			s.QueueDepths[i] += dep
		} else {
			s.QueueDepths = append(s.QueueDepths, dep)
		}
	}
	for i, c := range other.QueueCaps {
		if i < len(s.QueueCaps) {
			s.QueueCaps[i] += c
		} else {
			s.QueueCaps = append(s.QueueCaps, c)
		}
	}
	s.Service.Merge(&other.Service)
	s.Wait.Merge(&other.Wait)
}

// The process-global engine registry, the Prometheus model the latch
// profiler already uses: the metrics endpoint is wired to a
// *core.Engine, not to whatever DORA engines the process happens to
// run, so the exposition aggregates every live engine registered
// here. New registers, Close unregisters.
var (
	regMu   sync.Mutex
	engines = map[*Engine]struct{}{}
)

func register(d *Engine) {
	regMu.Lock()
	engines[d] = struct{}{}
	regMu.Unlock()
}

func unregister(d *Engine) {
	regMu.Lock()
	delete(engines, d)
	regMu.Unlock()
}

// GlobalStats aggregates the stats of every live engine. With no
// engine running it returns zeros, so metric families stay present
// (and zero) in the exposition rather than appearing mid-flight.
func GlobalStats() Stats {
	regMu.Lock()
	list := make([]*Engine, 0, len(engines))
	for d := range engines {
		list = append(list, d)
	}
	regMu.Unlock()
	var out Stats
	for _, d := range list {
		out.merge(d.StatsSnapshot())
	}
	return out
}
