package obs

import "hydra/internal/hist"

// Tier identifies one level of the latch hierarchy for profiling.
// The set mirrors the tiers in internal/invariant (the single source
// of truth for ordering); obs keeps its own dense
// indices so the per-tier arrays need no rank->slot lookup on the hot
// path. Adding a tier means adding it in both places.
type Tier uint8

const (
	TierEngineCkpt Tier = iota // core.Engine.ckptMu
	TierEngineMu               // core.Engine.mu
	TierTxnMu                  // core.Txn.mu
	TierTree                   // btree.Tree.mu
	TierLockPart               // lock.partition.mu
	TierFrameLatch             // buffer.Frame.Latch
	TierPoolShard              // buffer.shard.mu
	TierWALLog                 // wal.Log.mu
	TierWALWait                // wal.Log.waitMu
	TierWALDevice              // wal.FileDevice.mu
	TierDoraQueue              // sync2.Queue.mu (DORA executor inboxes)
	TierMVCCShard              // core.verShard.mu (MVCC version chains)

	// NumTiers is the tier count; valid tiers are < NumTiers.
	NumTiers
)

var tierNames = [NumTiers]string{
	"engine_ckpt", "engine_mu", "txn_mu", "tree",
	"lock_part", "frame_latch", "pool_shard", "wal_log",
	"wal_wait", "wal_device", "dora_queue", "mvcc_shard",
}

func (t Tier) String() string {
	if t < NumTiers {
		return tierNames[t]
	}
	return "unknown"
}

// sampleMask selects 1 in 64 acquisitions (per counter stripe) for
// timing. An unsampled acquisition costs one striped atomic add and a
// branch; a sampled one adds two monotonic clock reads. At 1/64 the
// amortized clock cost is well under a nanosecond per acquisition
// while a few thousand acquisitions already give a stable tail.
const sampleMask = 63

// AcquireProf profiles one latch tier: how often it is acquired and,
// for the sampled subset, how long acquisition took. The time-to-
// acquire distribution is the paper's leading indicator — a
// serializing construct inflates this tail long before it dents
// throughput.
type AcquireProf struct {
	ops     Counter
	acquire Hist
}

// Start begins an acquisition: it counts the op and decides whether
// this one is timed. It returns the start timestamp, or -1 when
// unsampled; pass the value to Done after the latch is held.
func (p *AcquireProf) Start() int64 {
	if p.ops.IncSeq()&sampleMask != 0 {
		return -1
	}
	return Now()
}

// Done completes an acquisition begun with Start.
func (p *AcquireProf) Done(tier Tier, start int64) {
	if start < 0 {
		return
	}
	d := Now() - start
	p.acquire.ObserveNanos(d)
	if d > traceLatchWaitMin {
		TraceEvent(EvLatchWait, 0, uint64(tier), uint64(d))
	}
}

// Ops returns the cumulative acquisition count.
func (p *AcquireProf) Ops() uint64 { return p.ops.Load() }

// Acquire returns a snapshot of the sampled time-to-acquire
// distribution.
func (p *AcquireProf) Acquire() hist.H { return p.acquire.Snapshot() }

// latchProfs is the process-global per-tier profile set. Latches are
// created deep inside subsystems (every buffer frame holds one), so a
// per-engine handle would have to thread through every constructor;
// a process-global registry — the Prometheus model — keeps the hot
// path to one array index. Multiple engines in one process (tests)
// share it, which is the usual semantics of process-wide metrics.
var latchProfs [NumTiers]AcquireProf

// LatchStart begins a profiled acquisition of tier. Bracket the
// blocking acquire:
//
//	s := obs.LatchStart(obs.TierPoolShard)
//	sh.mu.Lock()
//	obs.LatchDone(obs.TierPoolShard, s)
func LatchStart(tier Tier) int64 { return latchProfs[tier].Start() }

// LatchDone completes a profiled acquisition of tier.
func LatchDone(tier Tier, start int64) { latchProfs[tier].Done(tier, start) }

// TierSnapshot is one tier's profile at a point in time.
type TierSnapshot struct {
	Tier    string
	Ops     uint64
	Acquire hist.H
}

// LatchSnapshot returns a snapshot of every tier with any traffic.
func LatchSnapshot() []TierSnapshot {
	out := make([]TierSnapshot, 0, NumTiers)
	for t := Tier(0); t < NumTiers; t++ {
		ops := latchProfs[t].Ops()
		if ops == 0 {
			continue
		}
		out = append(out, TierSnapshot{
			Tier:    t.String(),
			Ops:     ops,
			Acquire: latchProfs[t].Acquire(),
		})
	}
	return out
}
