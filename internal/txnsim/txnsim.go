// Package txnsim is a deterministic discrete-event simulator of OLTP
// execution on a chip multiprocessor, comparing the two assignment
// disciplines of experiment E1: thread-to-transaction (any core runs
// any transaction, isolation through a centralized lock manager whose
// internal latches every lock and unlock must visit) and DORA's
// thread-to-data (transactions decompose into actions shipped to the
// executor owning the data, no shared lock state).
//
// Like internal/logsim, it substitutes for hardware this repository's
// measured experiments cannot provide: the centralized lock manager's
// latch contention — the phenomenon the DORA work measures — only
// exists when lock-table critical sections from different cores
// genuinely overlap. The model charges explicit cycle costs for lock
// table visits (with cache-line transfer on contention), transaction
// work, and DORA's action-dispatch messaging, and reports aggregate
// throughput per configuration.
package txnsim

// Params is the cost model, in abstract cycles.
type Params struct {
	// WorkCycles is a transaction's data-access and logic work,
	// excluding all synchronization.
	WorkCycles float64
	// LockVisits is the number of lock-manager round trips per
	// transaction (acquisitions + the release pass).
	LockVisits int
	// LockCSCycles is the critical-section length of one lock-table
	// visit (hash, queue manipulation).
	LockCSCycles float64
	// HandoffCycles is the extra cost when a visit finds the latch
	// held by another core (cache-line transfer + spin).
	HandoffCycles float64
	// LockPartitions is the number of independently latched lock-table
	// partitions (1 = the classic centralized manager).
	LockPartitions int
	// DispatchCycles is DORA's cost to ship one action to its owning
	// executor and return the completion (two message hops).
	DispatchCycles float64
	// Partitions is DORA's logical-partition count (= executors).
	Partitions int

	// The skewed-workload extension (SweepSkew): a HotFrac share of
	// transactions target one of HotRows rows under strict 2PL.

	// HotRows is the size of the hot set.
	HotRows int
	// RowHandoffCycles is the cost to transfer a contended row lock to
	// a parked waiter (park + unpark + reschedule, roughly two context
	// switches), charged to the new holder's serial chain. Parked-
	// waiter handoff is far more expensive than a latch spin transfer.
	RowHandoffCycles float64
	// DequeueCycles is the executor-side cost to take one action from a
	// backlogged inbox: batched draining amortizes the wakeup, so a hot
	// partition pays this instead of the full DispatchCycles round trip.
	DequeueCycles float64
}

// DefaultParams returns costs proportioned like the motivating
// systems: short transactions (TATP-like), ~10 lock visits each,
// lock-table critical sections of a few hundred cycles once queue
// manipulation and hierarchy walks are counted.
func DefaultParams(cores int) Params {
	return Params{
		WorkCycles:       30000,
		LockVisits:       10,
		LockCSCycles:     250,
		HandoffCycles:    400,
		LockPartitions:   1,
		DispatchCycles:   3000,
		Partitions:       cores,
		HotRows:          8,
		RowHandoffCycles: 6000,
		DequeueCycles:    300,
	}
}

// Result is one simulated configuration's outcome.
type Result struct {
	Cores int
	// TxnsPerMCycle is aggregate committed transactions per million
	// cycles.
	TxnsPerMCycle float64
	// LockWaitFrac is the fraction of total core time spent waiting
	// for lock-table latches (0 for DORA).
	LockWaitFrac float64
}

// Conventional simulates thread-to-transaction execution of txns
// transactions over cores.
func Conventional(p Params, cores, txns int) Result {
	coreTime := make([]float64, cores)
	partFree := make([]float64, p.LockPartitions)
	var waited float64
	for done := 0; done < txns; done++ {
		c := argmin(coreTime)
		t := coreTime[c]
		// Interleave lock visits through the transaction's work.
		slice := p.WorkCycles / float64(p.LockVisits)
		for v := 0; v < p.LockVisits; v++ {
			t += slice
			part := (done*7 + v) % p.LockPartitions // deterministic spread
			start := t
			if partFree[part] > t {
				start = partFree[part] + p.HandoffCycles
				waited += start - t
			}
			end := start + p.LockCSCycles
			partFree[part] = end
			t = end
		}
		coreTime[c] = t
	}
	end := maxOf(coreTime)
	total := end * float64(cores)
	return Result{
		Cores:         cores,
		TxnsPerMCycle: float64(txns) / end * 1e6,
		LockWaitFrac:  waited / total,
	}
}

// DORA simulates thread-to-data execution: each transaction is one
// action dispatched to the executor owning its key (uniform keys →
// round-robin partitions); executors do the work serially, with no
// shared synchronization at all.
func DORA(p Params, cores, txns int) Result {
	execTime := make([]float64, p.Partitions)
	for done := 0; done < txns; done++ {
		ex := done % p.Partitions
		execTime[ex] += p.DispatchCycles + p.WorkCycles
	}
	end := maxOf(execTime)
	return Result{
		Cores:         cores,
		TxnsPerMCycle: float64(txns) / end * 1e6,
	}
}

// Sweep runs both disciplines across core counts. DORA's executor
// count tracks the core count.
func Sweep(base Params, coreCounts []int, txns int) (conv, dora []Result) {
	for _, n := range coreCounts {
		p := base
		p.Partitions = n
		conv = append(conv, Conventional(p, n, txns))
		dora = append(dora, DORA(p, n, txns))
	}
	return conv, dora
}

// convCore is one core's in-flight transaction in ConventionalSkew.
type convCore struct {
	t       float64 // current simulated time on this core
	id      int     // transaction ordinal (for deterministic spreading)
	v       int     // next lock visit index
	isHot   bool
	row     int
	blocked bool // parked in a row-lock wait queue
	done    bool // no transactions left to issue to this core
}

// ConventionalSkew is Conventional with a hot set: a hotFrac share of
// transactions takes one of p.HotRows row locks at its first visit and
// holds it to commit (strict 2PL). A transaction arriving at a busy
// hot row queues behind the holder and, because the waiter parks, pays
// the RowHandoffCycles wakeup on the transfer. Hot transactions visit
// the hot row's home latch stripe for acquire and release, so skew
// also re-concentrates latch traffic that partitioning had spread out.
//
// Unlike Conventional — whose whole-transaction chronology is fine for
// the uniform latch-wall sweep — this variant interleaves cores at
// visit granularity so row hold times and latch visits from different
// cores overlap the way they would on real hardware. LockWaitFrac here
// counts latch and row-lock waiting together.
func ConventionalSkew(p Params, cores, txns int, hotFrac float64) Result {
	partFree := make([]float64, p.LockPartitions)
	rowHolder := make([]int, p.HotRows) // core index, -1 = free
	for i := range rowHolder {
		rowHolder[i] = -1
	}
	rowQueue := make([][]int, p.HotRows) // parked core indices, FIFO
	var waited, endMax float64
	issued, completed, hotCount := 0, 0, 0
	slice := p.WorkCycles / float64(p.LockVisits)

	cs := make([]convCore, cores)
	start := func(c *convCore, at float64) {
		if issued >= txns {
			c.done = true
			return
		}
		c.t = at
		c.id = issued
		c.v = 0
		c.isHot = float64(issued%1000) < hotFrac*1000
		if c.isHot {
			c.row = hotRow(hotCount, p.HotRows)
			hotCount++
		}
		issued++
	}
	for i := range cs {
		start(&cs[i], 0)
	}

	for completed < txns {
		// Advance the earliest runnable core by one visit, so resource
		// acquisition happens in (approximate) global time order. The
		// holder of any contended row is always runnable, so progress
		// is guaranteed.
		ci := -1
		for i := range cs {
			if cs[i].done || cs[i].blocked {
				continue
			}
			if ci < 0 || cs[i].t < cs[ci].t {
				ci = i
			}
		}
		c := &cs[ci]
		t := c.t + slice
		// Acquire and release go to the target row's home stripe; the
		// other visits (indexes, reads) spread across the table.
		part := (c.id*7 + c.v) % p.LockPartitions
		if c.isHot && (c.v == 0 || c.v == p.LockVisits-1) {
			part = c.row % p.LockPartitions
		}
		at := t
		if partFree[part] > t {
			at = partFree[part] + p.HandoffCycles
			waited += at - t
		}
		t = at + p.LockCSCycles
		partFree[part] = t
		if c.isHot && c.v == 0 && rowHolder[c.row] != ci {
			if rowHolder[c.row] >= 0 {
				// Row held by an in-flight transaction: park behind it
				// (strict 2PL — the holder keeps it to commit). The
				// grant happens at the holder's release, below.
				c.t = t
				c.blocked = true
				rowQueue[c.row] = append(rowQueue[c.row], ci)
				continue
			}
			rowHolder[c.row] = ci
		}
		c.v++
		if c.v == p.LockVisits {
			if c.isHot {
				// Release: hand the row to the first parked waiter,
				// who pays the wakeup on the transfer.
				if q := rowQueue[c.row]; len(q) > 0 {
					w := &cs[q[0]]
					rowQueue[c.row] = q[1:]
					grant := t + p.RowHandoffCycles
					waited += grant - w.t
					w.t = grant
					w.v = 1 // its acquire visit completes with the grant
					w.blocked = false
					rowHolder[c.row] = q[0]
				} else {
					rowHolder[c.row] = -1
				}
			}
			if t > endMax {
				endMax = t
			}
			completed++
			start(c, t)
		} else {
			c.t = t
		}
	}
	return Result{
		Cores:         cores,
		TxnsPerMCycle: float64(txns) / endMax * 1e6,
		LockWaitFrac:  waited / (endMax * float64(cores)),
	}
}

// DORASkew is DORA with the same hot set: hot rows co-locate on their
// owning executors (spread round-robin, as a balanced routing hash
// would place them), so a hot partition serializes its rows'
// transactions — but its inbox stays backlogged, and the batched drain
// amortizes the wakeup to DequeueCycles per action where an unloaded
// partition pays the full dispatch round trip. There is no lock
// manager and no parked-waiter handoff anywhere: the next serialized
// transaction is just the next entry in the drained batch.
func DORASkew(p Params, cores, txns int, hotFrac float64) Result {
	execTime := make([]float64, p.Partitions)
	hot := 0
	for done := 0; done < txns; done++ {
		if float64(done%1000) < hotFrac*1000 {
			ex := hotRow(hot, p.HotRows) % p.Partitions
			hot++
			execTime[ex] += p.DequeueCycles + p.WorkCycles
		} else {
			ex := done % p.Partitions
			execTime[ex] += p.DispatchCycles + p.WorkCycles
		}
	}
	end := maxOf(execTime)
	return Result{
		Cores:         cores,
		TxnsPerMCycle: float64(txns) / end * 1e6,
	}
}

// SweepSkew runs both disciplines across hot-set fractions at a fixed
// core count (the E15 crossover).
func SweepSkew(base Params, cores int, hotFracs []float64, txns int) (conv, dora []Result) {
	p := base
	p.Partitions = cores
	for _, h := range hotFracs {
		conv = append(conv, ConventionalSkew(p, cores, txns, h))
		dora = append(dora, DORASkew(p, cores, txns, h))
	}
	return conv, dora
}

// hotRow draws the i-th hot transaction's target row pseudo-randomly:
// a uniform hot set produces birthday collisions between concurrent
// transactions, which a round-robin assignment would (unrealistically)
// never have.
func hotRow(i, rows int) int {
	// splitmix64-style avalanche: a plain multiplicative hash is a
	// low-discrepancy sequence whose consecutive draws (i.e. the
	// concurrently running transactions) would almost never collide.
	x := uint64(i) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int(x % uint64(rows))
}

func argmin(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v < xs[best] {
			best = i
		}
	}
	return best
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
