// Banking: the TPC-B debit/credit workload — the intro's canonical
// transaction-processing scenario — run concurrently on both engine
// configurations, with the money-conservation invariant checked.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"hydra/internal/core"
	"hydra/internal/rng"
	"hydra/internal/workload"
)

func main() {
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"conventional (the single-threaded Atlas)", core.Conventional()},
		{"scalable (the multi-threaded Hydra)", core.Scalable()},
	} {
		engine, err := core.Open(cfg.c)
		if err != nil {
			log.Fatal(err)
		}
		bank, err := workload.SetupTPCB(engine, 4, 10, 1000)
		if err != nil {
			log.Fatal(err)
		}

		const workers = 8
		const duration = 300 * time.Millisecond
		var total uint64
		var mu sync.Mutex
		var wg sync.WaitGroup
		deadline := time.Now().Add(duration)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				src := rng.New(uint64(w))
				x := workload.TxnExecutor{Engine: engine}
				n := uint64(0)
				for time.Now().Before(deadline) {
					if err := bank.RunOne(src, x); err != nil {
						log.Printf("worker %d: %v", w, err)
						return
					}
					n++
				}
				mu.Lock()
				total += n
				mu.Unlock()
			}(w)
		}
		wg.Wait()

		if err := bank.Check(engine); err != nil {
			log.Fatalf("INVARIANT VIOLATED: %v", err)
		}
		st := engine.StatsSnapshot()
		fmt.Printf("%s:\n", cfg.name)
		fmt.Printf("  %d debit/credit transactions in %v (%.0f tps, %d workers)\n",
			total, duration, float64(total)/duration.Seconds(), workers)
		fmt.Printf("  commits=%d aborts=%d lock-waits=%d deadlocks=%d log-bytes=%d\n",
			st.Commits, st.Aborts, st.Lock.Waits, st.Lock.Deadlocks, st.Log.InsertedBytes)
		fmt.Printf("  money conserved across branches, tellers, accounts, history ✓\n\n")
		engine.Close()
	}
}
