package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("fresh counter = %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	const (
		workers = 8
		perW    = 10000
	)
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perW {
		t.Fatalf("Load = %d, want %d", got, workers*perW)
	}
}

func TestCounterIncSeqAdvances(t *testing.T) {
	var c Counter
	// IncSeq returns a per-stripe sequence; from a single goroutine
	// the stripe is stable, so values must be strictly increasing.
	prev := c.IncSeq()
	for i := 0; i < 100; i++ {
		v := c.IncSeq()
		if v <= prev {
			t.Fatalf("IncSeq not increasing: %d after %d", v, prev)
		}
		prev = v
	}
	if c.Load() != 101 {
		t.Fatalf("Load = %d after 101 IncSeq", c.Load())
	}
}

func TestHistSnapshotMatchesSerial(t *testing.T) {
	var h Hist
	ds := []time.Duration{3 * time.Nanosecond, 500 * time.Nanosecond,
		7 * time.Microsecond, 1200 * time.Microsecond, 9 * time.Millisecond}
	for _, d := range ds {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count() != uint64(len(ds)) {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Max() != 9*time.Millisecond {
		t.Fatalf("max = %v", s.Max())
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	if s.Sum() != sum {
		t.Fatalf("sum = %v, want %v", s.Sum(), sum)
	}
}

func TestHistConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.ObserveNanos(int64(seed*1000 + i + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != workers*perW {
		t.Fatalf("count = %d, want %d", s.Count(), workers*perW)
	}
	if s.Max() < time.Duration(7*1000+perW) {
		t.Fatalf("max = %v lost the largest observation", s.Max())
	}
}

func TestTracerDisabledByDefault(t *testing.T) {
	var tr Tracer
	tr.Record(EvBegin, 1, 0, 0)
	if got := tr.Len(); got != 0 {
		t.Fatalf("disabled tracer retained %d events", got)
	}
}

func TestTracerRecordDump(t *testing.T) {
	var tr Tracer
	tr.SetEnabled(true)
	tr.Record(EvBegin, 7, 0, 0)
	tr.Record(EvLockWait, 7, 123, 456)
	tr.Record(EvCommit, 7, 0, 0)
	evs := tr.Dump()
	if len(evs) != 3 {
		t.Fatalf("Dump returned %d events", len(evs))
	}
	// Dump is time-ordered and single-goroutine recording preserves
	// program order.
	if evs[0].Kind != EvBegin || evs[1].Kind != EvLockWait || evs[2].Kind != EvCommit {
		t.Fatalf("order = %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[1].Arg != 123 || evs[1].Arg2 != 456 {
		t.Fatalf("args = %d %d", evs[1].Arg, evs[1].Arg2)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatal("Dump not time-ordered")
		}
	}
}

func TestTracerWrap(t *testing.T) {
	var tr Tracer
	tr.SetEnabled(true)
	// Overfill from one goroutine: one stripe wraps many times; Dump
	// must still return at most ringSlots coherent events from it.
	for i := 0; i < 5*ringSlots; i++ {
		tr.Record(EvLogAppend, uint64(i), 0, 0)
	}
	evs := tr.Dump()
	if len(evs) == 0 || len(evs) > ringSlots {
		t.Fatalf("Dump after wrap returned %d events", len(evs))
	}
}

func TestTracerConcurrentRecordDump(t *testing.T) {
	var tr Tracer
	tr.SetEnabled(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					tr.Record(EvCommit, id, uint64(i), 0)
				}
			}
		}(uint64(w))
	}
	for i := 0; i < 50; i++ {
		for _, ev := range tr.Dump() {
			if ev.Kind != EvCommit || ev.Txn > 3 {
				t.Errorf("torn event surfaced: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestAcquireProfSampling(t *testing.T) {
	var p AcquireProf
	sampled := 0
	const n = 64 * 10
	for i := 0; i < n; i++ {
		s := p.Start()
		if s >= 0 {
			sampled++
		}
		p.Done(s)
	}
	if p.Ops() != n {
		t.Fatalf("Ops = %d, want %d", p.Ops(), n)
	}
	// Single goroutine -> single stripe -> exactly 1-in-64 sampling.
	if sampled != n/64 {
		t.Fatalf("sampled %d of %d, want %d", sampled, n, n/64)
	}
	acq := p.Acquire()
	if got := acq.Count(); got != uint64(sampled) {
		t.Fatalf("histogram count %d, sampled %d", got, sampled)
	}
}

// Test tiers, registered once per process (-count=N reruns the tests).
var (
	testBusyTier = NewAcquireProf("test_busy", 1001)
	_            = NewAcquireProf("test_idle", 1002)
)

func TestLatchSnapshotSkipsIdleTiers(t *testing.T) {
	// The global profile set accumulates across tests in this package
	// (and from any other package's tests in the same binary), so
	// assert shape, not exact contents: every entry must name a known
	// tier and carry traffic.
	testBusyTier.Done(testBusyTier.Start())
	snap := LatchSnapshot()
	seen := false
	for _, s := range snap {
		if s.Ops == 0 || s.Tier == "test_idle" {
			t.Fatalf("idle tier %q in snapshot", s.Tier)
		}
		if s.Tier == "test_busy" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("tier with traffic missing from snapshot")
	}
}

// TestTierNamesComplete: every registered tier has a label of its own,
// so no two tiers share a /metrics series.
func TestTierNamesComplete(t *testing.T) {
	for _, label := range []string{"", "test_idle"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("registering label %q did not panic", label)
				}
			}()
			NewAcquireProf(label, 1004)
		}()
	}
	if tiers := LatchTiers(); len(tiers) != 2 || tiers[1] != "test_idle" {
		t.Fatalf("LatchTiers = %v, want [test_busy test_idle]", tiers)
	}
}

func TestNowMonotone(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Fatalf("Now not monotone: %d then %d", a, b)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistObserve(b *testing.B) {
	var h Hist
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveNanos(int64(100))
		}
	})
}

func BenchmarkLatchProfUnsampledMostly(b *testing.B) {
	var p AcquireProf
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Done(p.Start())
		}
	})
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr Tracer
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(EvCommit, 1, 0, 0)
		}
	})
}

func BenchmarkTracerEnabled(b *testing.B) {
	var tr Tracer
	tr.SetEnabled(true)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(EvCommit, 1, 0, 0)
		}
	})
}
