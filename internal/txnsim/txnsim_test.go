package txnsim

import "testing"

const txns = 20000

func TestSingleCoreDORAOverheadVisible(t *testing.T) {
	p := DefaultParams(1)
	conv := Conventional(p, 1, txns)
	dora := DORA(p, 1, txns)
	// At one core the conventional system wins slightly: it pays lock
	// visits but no dispatch messaging; both are within a small factor.
	if dora.TxnsPerMCycle >= conv.TxnsPerMCycle*1.05 {
		t.Fatalf("DORA should not win at 1 core: conv=%f dora=%f",
			conv.TxnsPerMCycle, dora.TxnsPerMCycle)
	}
	ratio := conv.TxnsPerMCycle / dora.TxnsPerMCycle
	if ratio > 1.5 {
		t.Fatalf("single-core gap implausibly large: %f", ratio)
	}
}

// The DORA figure shape: the conventional system hits the lock-table
// latch wall; DORA keeps scaling.
func TestDORAWinsAtScale(t *testing.T) {
	cores := []int{1, 2, 4, 8, 16, 32, 64}
	conv, dora := Sweep(DefaultParams(1), cores, txns)
	// Find the crossover.
	crossed := false
	for i := range cores {
		if dora[i].TxnsPerMCycle > conv[i].TxnsPerMCycle {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("DORA never overtook the conventional system")
	}
	// At 64 cores the gap must be substantial.
	last := len(cores) - 1
	if dora[last].TxnsPerMCycle < 2*conv[last].TxnsPerMCycle {
		t.Fatalf("64-core gap too small: conv=%f dora=%f",
			conv[last].TxnsPerMCycle, dora[last].TxnsPerMCycle)
	}
}

func TestConventionalSaturates(t *testing.T) {
	p := DefaultParams(1)
	c16 := Conventional(p, 16, txns)
	c64 := Conventional(p, 64, txns)
	if c64.TxnsPerMCycle > c16.TxnsPerMCycle*1.2 {
		t.Fatalf("conventional still scaling past 16 cores: %f -> %f",
			c16.TxnsPerMCycle, c64.TxnsPerMCycle)
	}
	// And most core time is lock waiting at 64 cores.
	if c64.LockWaitFrac < 0.5 {
		t.Fatalf("lock wait fraction at 64 cores only %f", c64.LockWaitFrac)
	}
}

func TestDORAScalesLinearly(t *testing.T) {
	p := DefaultParams(1)
	p.Partitions = 1
	d1 := DORA(p, 1, txns)
	p.Partitions = 32
	d32 := DORA(p, 32, txns)
	speedup := d32.TxnsPerMCycle / d1.TxnsPerMCycle
	if speedup < 30 || speedup > 33 {
		t.Fatalf("DORA 32-way speedup = %f, want ~32 (uniform keys)", speedup)
	}
}

func TestPartitionedLockTableHelpsButBounded(t *testing.T) {
	// Partitioning the lock table (Shore-MT's fix) lifts the ceiling
	// but the latch cost per visit remains; DORA removes it entirely.
	p := DefaultParams(1)
	cores := 64
	central := Conventional(p, cores, txns)
	p.LockPartitions = 16
	parted := Conventional(p, cores, txns)
	if parted.TxnsPerMCycle <= central.TxnsPerMCycle {
		t.Fatal("partitioned lock table did not help")
	}
	pd := p
	pd.Partitions = cores
	dora := DORA(pd, cores, txns)
	if dora.TxnsPerMCycle <= parted.TxnsPerMCycle {
		t.Fatalf("DORA (%f) should beat even the partitioned table (%f)",
			dora.TxnsPerMCycle, parted.TxnsPerMCycle)
	}
}

// The E15 crossover shape: at zero skew DORA's dispatch overhead loses
// narrowly; as the hot fraction rises, the conventional system's serial
// chain per hot transaction carries lock visits and parked-waiter
// handoffs that DORA's batched executor inbox does not, and the ratio
// flips past 1.
func TestSkewCrossover(t *testing.T) {
	hotFracs := []float64{0, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99}
	conv, dora := SweepSkew(DefaultParams(1), 4, hotFracs, txns)
	first := dora[0].TxnsPerMCycle / conv[0].TxnsPerMCycle
	if first >= 1 {
		t.Fatalf("DORA should pay for dispatch at zero skew: ratio %f", first)
	}
	last := len(hotFracs) - 1
	end := dora[last].TxnsPerMCycle / conv[last].TxnsPerMCycle
	if end <= 1 {
		t.Fatalf("DORA should win on the contended tail: ratio %f", end)
	}
}

// Under extreme skew both systems serialize on the hot set; throughput
// must collapse versus the uniform case for both, or the model is not
// actually charging for contention.
func TestSkewCollapsesThroughput(t *testing.T) {
	p := DefaultParams(1)
	p.HotRows = 2 // hot set narrower than the core count
	conv, dora := SweepSkew(p, 8, []float64{0, 0.99}, txns)
	if conv[1].TxnsPerMCycle > conv[0].TxnsPerMCycle/2 {
		t.Fatalf("conventional barely slowed by 99%% skew: %f -> %f",
			conv[0].TxnsPerMCycle, conv[1].TxnsPerMCycle)
	}
	if dora[1].TxnsPerMCycle > dora[0].TxnsPerMCycle/2 {
		t.Fatalf("DORA barely slowed by 99%% skew: %f -> %f",
			dora[0].TxnsPerMCycle, dora[1].TxnsPerMCycle)
	}
}

func TestDeterminism(t *testing.T) {
	a := Conventional(DefaultParams(8), 8, txns)
	b := Conventional(DefaultParams(8), 8, txns)
	if a != b {
		t.Fatal("simulation not deterministic")
	}
}
