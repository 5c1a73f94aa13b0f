// Package hydra's top-level benchmarks regenerate every experiment in
// EXPERIMENTS.md as a testing.B target — one benchmark per table or
// figure of the reproduction. Sub-benchmarks name the systems under
// comparison, so `go test -bench=E1` prints the conventional-vs-DORA
// pair directly.
//
// The bench numbers are the per-operation view; the paper-shaped
// sweep tables come from `go run ./cmd/hydra-bench`.
package hydra

import (
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/cmpmodel"
	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/lock"
	"hydra/internal/rng"
	"hydra/internal/staged"
	"hydra/internal/sync2"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// BenchmarkE1_DORAvsConventional: TATP transactions per second under
// thread-to-transaction (centralized locking) vs thread-to-data.
func BenchmarkE1_DORAvsConventional(b *testing.B) {
	const subscribers = 10000
	b.Run("conventional", func(b *testing.B) {
		e, err := core.Open(core.Conventional())
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		w, err := workload.SetupTATP(e, subscribers)
		if err != nil {
			b.Fatal(err)
		}
		x := workload.TxnExecutor{Engine: e}
		var seq uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seq++
			src := rng.New(seq)
			for pb.Next() {
				if err := w.RunOne(src, x); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("dora", func(b *testing.B) {
		e, err := core.Open(core.Scalable())
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		w, err := workload.SetupTATP(e, subscribers)
		if err != nil {
			b.Fatal(err)
		}
		d := dora.New(e, dora.Options{Executors: 8})
		defer d.Close()
		x := workload.DoraExecutor{Engine: d}
		var seq uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seq++
			src := rng.New(seq)
			for pb.Next() {
				if err := w.RunOne(src, x); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkE2_LogScalability: concurrent 120-byte log inserts through
// each insert algorithm.
func BenchmarkE2_LogScalability(b *testing.B) {
	for _, kind := range wal.BufferKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			l, err := wal.New(wal.NewMem(), wal.Options{Kind: kind, BufferSize: 16 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 120)
			b.SetBytes(int64(wal.EncodedSize(len(payload))))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(&wal.Record{Type: wal.RecUpdate, Payload: payload}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkE3_SpinVsBlock: contended lock/unlock cycles with a short
// critical section, per primitive.
func BenchmarkE3_SpinVsBlock(b *testing.B) {
	for _, kind := range sync2.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			l := sync2.New(kind)
			var shared uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock()
					shared++
					l.Unlock()
				}
			})
			_ = shared
		})
	}
}

// BenchmarkE4_SingleThreadVsScalable: TPC-B transactions on both
// engine configurations; run with -cpu 1,8 to see the crossover.
func BenchmarkE4_SingleThreadVsScalable(b *testing.B) {
	for _, sys := range []struct {
		name string
		cfg  core.Config
	}{
		{"conventional", core.Conventional()},
		{"scalable", core.Scalable()},
	} {
		sys := sys
		b.Run(sys.name, func(b *testing.B) {
			e, err := core.Open(sys.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			w, err := workload.SetupTPCB(e, 4, 10, 1000)
			if err != nil {
				b.Fatal(err)
			}
			x := workload.TxnExecutor{Engine: e}
			var seq uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seq++
				src := rng.New(seq)
				for pb.Next() {
					if err := w.RunOne(src, x); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if err := w.Check(e); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE5_SLI: skewed microbenchmark with and without speculative
// lock inheritance; reports lock-table operations per transaction.
func BenchmarkE5_SLI(b *testing.B) {
	for _, useSLI := range []bool{false, true} {
		useSLI := useSLI
		name := "sli-off"
		if useSLI {
			name = "sli-on"
		}
		b.Run(name, func(b *testing.B) {
			e, err := core.Open(core.Scalable())
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			w, err := workload.SetupMicro(e, 20000, 0.2, 0.9, 32)
			if err != nil {
				b.Fatal(err)
			}
			before := e.StatsSnapshot().Lock
			var seq uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seq++
				var agent *lock.Agent
				if useSLI {
					agent = e.Locks().NewAgent()
					defer agent.Close()
				}
				x := workload.TxnExecutor{Engine: e, Intent: core.Intent{Agent: agent}}
				s := w.NewSampler(seq)
				for pb.Next() {
					if err := w.RunOne(s, x); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			after := e.StatsSnapshot().Lock
			if b.N > 0 {
				b.ReportMetric(float64(after.TableOps-before.TableOps)/float64(b.N), "tableops/op")
				b.ReportMetric(float64(after.Inherited-before.Inherited)/float64(b.N), "inherited/op")
			}
		})
	}
}

// BenchmarkE6_CMPModel: one full model evaluation (the figure
// generator evaluates thousands of configurations).
func BenchmarkE6_CMPModel(b *testing.B) {
	m := cmpmodel.DefaultMachine()
	for _, w := range []cmpmodel.Workload{cmpmodel.OLTP(), cmpmodel.DSS()} {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := cmpmodel.Evaluate(m, w)
				if r.TPS <= 0 {
					b.Fatal("model returned non-positive throughput")
				}
			}
		})
	}
}

// BenchmarkE7_SharedScans: one aggregate query per iteration, with
// concurrent iterations sharing (or not) the physical scan.
func BenchmarkE7_SharedScans(b *testing.B) {
	for _, shared := range []bool{false, true} {
		shared := shared
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			e, err := core.Open(core.Scalable())
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if _, err := workload.SetupMicro(e, 20000, 0, 0, 16); err != nil {
				b.Fatal(err)
			}
			tbl, err := e.Table("micro_kv")
			if err != nil {
				b.Fatal(err)
			}
			se := staged.New(e, staged.Options{SharedScans: shared})
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := se.Execute(staged.Query{Table: tbl})
					if err != nil {
						b.Error(err)
						return
					}
					if res.Count != 20000 {
						b.Errorf("query saw %d rows", res.Count)
						return
					}
				}
			})
			b.StopTimer()
			st := se.StatsSnapshot()
			if st.Queries > 0 {
				b.ReportMetric(float64(st.PhysicalScans)/float64(st.Queries), "scans/query")
			}
		})
	}
}

// BenchmarkE8_RecoveryELR has two parts: commit throughput on a hot
// key with/without early lock release, and full ARIES restart time
// for a fixed log.
func BenchmarkE8_RecoveryELR(b *testing.B) {
	for _, elr := range []bool{false, true} {
		elr := elr
		name := "commit-elr-off"
		if elr {
			name = "commit-elr-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Scalable()
			cfg.ELR = elr
			dev := wal.NewMem()
			dev.SyncFn = func() { time.Sleep(50 * time.Microsecond) }
			e, err := core.OpenWith(cfg, buffer.NewMemStore(), dev)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			w, err := workload.SetupMicro(e, 16, 1.0, 0, 16)
			if err != nil {
				b.Fatal(err)
			}
			x := workload.TxnExecutor{Engine: e}
			var seq uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seq++
				s := w.NewSampler(seq)
				for pb.Next() {
					if err := w.RunOne(s, x); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}

	b.Run("restart", func(b *testing.B) {
		// Build one crashed image, then measure restart repeatedly;
		// redo is idempotent so each restart does the same work.
		store := buffer.NewMemStore()
		dev := wal.NewMem()
		e, err := core.OpenWith(core.Conventional(), store, dev)
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := e.CreateTable("t")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			i := i
			if err := e.Exec(func(tx *core.Txn) error {
				return tx.Insert(tbl, uint64(i), workload.U64(uint64(i)))
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Log().Flush(); err != nil {
			b.Fatal(err)
		}
		e.Log().Close() // crash
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e2, err := core.OpenWith(core.Conventional(), store, dev)
			if err != nil {
				b.Fatal(err)
			}
			if e2.RecoveryReport.Scanned == 0 {
				b.Fatal("restart scanned nothing")
			}
			b.StopTimer()
			e2.Log().Close() // crash again rather than checkpointing
			b.StartTimer()
		}
	})
}
