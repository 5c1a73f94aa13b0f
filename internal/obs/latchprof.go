package obs

import "hydra/internal/hist"

// sampleMask selects 1 in 64 acquisitions (per counter stripe) for
// timing. An unsampled acquisition costs one striped atomic add and a
// branch; a sampled one adds two monotonic clock reads. At 1/64 the
// amortized clock cost is well under a nanosecond per acquisition
// while a few thousand acquisitions already give a stable tail.
const sampleMask = 63

// AcquireProf profiles one lock tier: how often it is acquired and,
// for the sampled subset, how long acquisition took. The time-to-
// acquire distribution is the paper's leading indicator — a
// serializing construct inflates this tail long before it dents
// throughput. The ranked lock types of internal/invariant, which
// declare the tiers, feed it on every acquisition.
type AcquireProf struct {
	label   string // the tier label on /metrics
	rank    uint64 // the tier's rank, the Arg of its latch-wait events
	ops     Counter
	acquire Hist
}

// Start begins an acquisition: it counts the op and decides whether
// this one is timed. It returns the start timestamp, or -1 when
// unsampled; pass the value to Done after the lock is held.
func (p *AcquireProf) Start() int64 {
	if p.ops.IncSeq()&sampleMask != 0 {
		return -1
	}
	return Now()
}

// Done completes an acquisition begun with Start.
func (p *AcquireProf) Done(start int64) {
	if start >= 0 {
		p.observe(start)
	}
}

func (p *AcquireProf) observe(start int64) {
	d := Now() - start
	p.acquire.ObserveNanos(d)
	if d > traceLatchWaitMin {
		TraceEvent(EvLatchWait, 0, p.rank, uint64(d))
	}
}

// Ops returns the cumulative acquisition count.
func (p *AcquireProf) Ops() uint64 { return p.ops.Load() }

// Acquire returns a snapshot of the sampled time-to-acquire
// distribution.
func (p *AcquireProf) Acquire() hist.H { return p.acquire.Snapshot() }

// latchProfs is the process-global registry of tier profiles, in
// declaration order. Locks are created deep inside subsystems (every
// buffer frame holds one), so a per-engine handle would have to thread
// through every constructor; a process-global registry — the
// Prometheus model — keeps the hot path to the tier's own profile.
// Multiple engines in one process (tests) share it, which is the usual
// semantics of process-wide metrics. It is appended to only during
// package initialisation and read without a lock afterwards.
var latchProfs []*AcquireProf

// NewAcquireProf returns a new profile registered under label, the
// tier label of hydra_latch_acquires_total; rank is carried by its
// latch-wait trace events. Call it during package initialisation only.
// It panics on an empty or already registered label.
func NewAcquireProf(label string, rank int) *AcquireProf {
	if label == "" {
		panic("obs: latch tier without a label")
	}
	for _, p := range latchProfs {
		if p.label == label {
			panic("obs: latch tier " + label + " registered twice")
		}
	}
	p := &AcquireProf{label: label, rank: uint64(rank)}
	latchProfs = append(latchProfs, p)
	return p
}

// LatchTiers returns the label of every registered tier.
func LatchTiers() []string {
	out := make([]string, len(latchProfs))
	for i, p := range latchProfs {
		out[i] = p.label
	}
	return out
}

// TierSnapshot is one tier's profile at a point in time.
type TierSnapshot struct {
	Tier    string
	Ops     uint64
	Acquire hist.H
}

// LatchSnapshot returns a snapshot of every tier with any traffic.
func LatchSnapshot() []TierSnapshot {
	out := make([]TierSnapshot, 0, len(latchProfs))
	for _, p := range latchProfs {
		ops := p.Ops()
		if ops == 0 {
			continue
		}
		out = append(out, TierSnapshot{Tier: p.label, Ops: ops, Acquire: p.Acquire()})
	}
	return out
}
