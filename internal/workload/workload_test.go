package workload

import (
	"errors"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
)

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestTATPLoadAndMix(t *testing.T) {
	e := newEngine(t)
	w, err := SetupTATP(e, 500)
	if err != nil {
		t.Fatal(err)
	}
	x := TxnExecutor{Engine: e}
	src := rng.New(1)
	for i := 0; i < 2000; i++ {
		if err := w.RunOne(src, x); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
}

func TestTATPWithDORA(t *testing.T) {
	e := newEngine(t)
	w, err := SetupTATP(e, 500)
	if err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 4, RouteShift: 4})
	defer d.Close()
	x := DoraExecutor{Engine: d}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g))
			for i := 0; i < 500; i++ {
				if err := w.RunOne(src, x); err != nil {
					t.Errorf("dora txn: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
	if d.StatsSnapshot().ActionsExecuted == 0 {
		t.Fatal("no actions routed through DORA")
	}
}

func TestTPCBConservation(t *testing.T) {
	e := newEngine(t)
	w, err := SetupTPCB(e, 2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	x := TxnExecutor{Engine: e}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(100 + g))
			for i := 0; i < 200; i++ {
				if err := w.RunOne(src, x); err != nil {
					t.Errorf("tpcb txn: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
}

func TestTPCBDetectsCorruption(t *testing.T) {
	e := newEngine(t)
	w, err := SetupTPCB(e, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with one account outside the workload's bookkeeping.
	e.Exec(func(tx *core.Txn) error { return tx.Update(w.Account, 0, I64(12345)) })
	if err := w.Check(e); err == nil {
		t.Fatal("Check failed to detect imbalance")
	}
}

// Concurrent read-modify-writes, locked and SI, lose no write: the
// counters sum to the committed writes Check counted.
func TestMicroWriteConservation(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w, err := SetupMicro(e, 1000, 0.5, 0.9, 64)
	if err != nil {
		t.Fatal(err)
	}
	w.SIFrac = 0.5
	x := TxnExecutor{Engine: e}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := w.NewSampler(uint64(g))
			for i := 0; i < 250; i++ {
				if err := w.RunOne(s, x); err != nil && !errors.Is(err, core.ErrWriteConflict) {
					t.Errorf("micro op: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.rmws.Load() == 0 {
		t.Fatal("no read-modify-write committed")
	}
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
}

// Check fails when one counter no longer matches the committed writes.
func TestMicroCheckDetectsCorruption(t *testing.T) {
	e := newEngine(t)
	w, err := SetupMicro(e, 100, 1.0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := w.NewSampler(1)
	for i := 0; i < 50; i++ {
		if err := w.RunOne(s, TxnExecutor{Engine: e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error {
		v, err := tx.ReadForUpdate(w.Table, 7)
		if err != nil {
			return err
		}
		copy(v, U64(DecU64(v)+1))
		return tx.Update(w.Table, 7, v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(e); err == nil {
		t.Fatal("Check passed with one counter bumped outside the workload")
	}
}

func TestMicroZipfSkewsTraffic(t *testing.T) {
	e := newEngine(t)
	w, err := SetupMicro(e, 10000, 1.0, 0.99, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := w.NewSampler(5)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[s.Next()]++
	}
	if counts[0] < 500 {
		t.Fatalf("hottest key drew only %d/20000", counts[0])
	}
}

func TestMicroHotSetFocusesTraffic(t *testing.T) {
	e := newEngine(t)
	w, err := SetupMicro(e, 10000, 1.0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	w.HotKeys = 4
	w.HotFrac = 0.8
	s := w.NewSampler(5)
	const draws = 20000
	hot := 0
	for i := 0; i < draws; i++ {
		if s.Next() < w.HotKeys {
			hot++
		}
	}
	// ~80% of draws plus the uniform tail's sliver should land hot;
	// allow generous sampling slack around the expectation.
	if frac := float64(hot) / draws; frac < 0.75 || frac > 0.85 {
		t.Fatalf("hot fraction = %.3f, want ~0.80", frac)
	}

	// Knob off: the hot set draws only its uniform share.
	w.HotFrac = 0
	s = w.NewSampler(7)
	hot = 0
	for i := 0; i < draws; i++ {
		if s.Next() < 4 {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac > 0.01 {
		t.Fatalf("hot fraction with knob off = %.3f", frac)
	}
}

func TestCodecs(t *testing.T) {
	if DecU64(U64(42)) != 42 {
		t.Fatal("U64 round trip")
	}
	if DecI64(I64(-42)) != -42 {
		t.Fatal("I64 round trip")
	}
}

// TPC-B decomposed into DORA multi-action transactions: partition
// claims must preserve the money-conservation invariant under
// concurrency, with no centralized lock manager involved, and every
// transaction commits.
func TestTPCBViaDORAMultiAction(t *testing.T) {
	e := newEngine(t)
	w, err := SetupTPCB(e, 2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 4})
	defer d.Close()
	before := e.StatsSnapshot().Lock.TableOps
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(300 + g))
			for i := 0; i < 150; i++ {
				if err := w.RunOneDora(src, d); err != nil {
					t.Errorf("dora tpcb: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Check(e); err != nil {
		t.Fatal(err)
	}
	// The run itself must not have touched the central lock table
	// (Check does, afterwards).
	if got := e.StatsSnapshot().Lock.TableOps - before; got > 50 {
		t.Fatalf("DORA run visited the central lock table %d times", got)
	}
}
