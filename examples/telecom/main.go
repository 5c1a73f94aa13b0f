// Telecom: the TATP subscriber workload executed two ways — through
// the centralized lock manager (thread-to-transaction) and through
// DORA partition executors (thread-to-data) — printing the throughput
// of each, a miniature of experiment E1.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/workload"
)

const (
	subscribers = 5000
	workers     = 8
	window      = 300 * time.Millisecond
)

func main() {
	fmt.Printf("TATP, %d subscribers, %d workers, %v window\n\n", subscribers, workers, window)

	// Conventional: every worker runs any transaction, isolation via
	// the centralized lock table.
	conv, err := core.Open(core.Conventional())
	if err != nil {
		log.Fatal(err)
	}
	tatp, err := workload.SetupTATP(conv, subscribers)
	if err != nil {
		log.Fatal(err)
	}
	convTPS := drive(func(w int, src *rng.Source) error {
		return tatp.RunOne(src, workload.TxnExecutor{Engine: conv})
	})
	st := conv.StatsSnapshot()
	fmt.Printf("conventional: %8.0f tps  (lock table ops: %d, waits: %d)\n",
		convTPS, st.Lock.TableOps, st.Lock.Waits)
	conv.Close()

	// DORA: the subscriber key space is partitioned over executors;
	// transactions are decomposed into routed actions, no lock table.
	dcore, err := core.Open(core.Scalable())
	if err != nil {
		log.Fatal(err)
	}
	tatp2, err := workload.SetupTATP(dcore, subscribers)
	if err != nil {
		log.Fatal(err)
	}
	d := dora.New(dcore, dora.Options{Executors: workers, RouteShift: 4})
	doraTPS := drive(func(w int, src *rng.Source) error {
		return tatp2.RunOne(src, workload.DoraExecutor{Engine: d})
	})
	ds := d.StatsSnapshot()
	ls := dcore.StatsSnapshot().Lock
	fmt.Printf("dora:         %8.0f tps  (actions: %d, lock table ops: %d)\n",
		doraTPS, ds.ActionsExecuted, ls.TableOps)
	txns := ds.SinglePartition + ds.CrossPartition
	batch := 0.0
	if ds.Batches > 0 {
		batch = float64(ds.BatchedJobs) / float64(ds.Batches)
	}
	fmt.Printf("              fast path: %d/%d txns single-partition (%.0f%%), %.1f jobs/drain, svc p99 %v\n",
		ds.SinglePartition, txns, 100*float64(ds.SinglePartition)/float64(txns),
		batch, time.Duration(ds.Service.Quantile(0.99)))
	fmt.Printf("\ndora/conventional = %.2fx\n", doraTPS/convTPS)
	d.Close()
	dcore.Close()
}

// drive runs the worker function for the window and returns tps.
func drive(run func(w int, src *rng.Source) error) float64 {
	var total uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w))
			n := uint64(0)
			for time.Now().Before(deadline) {
				if err := run(w, src); err != nil {
					log.Printf("worker %d: %v", w, err)
					break
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return float64(total) / window.Seconds()
}
