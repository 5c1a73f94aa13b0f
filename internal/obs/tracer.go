package obs

import (
	"sort"
	"sync/atomic"
)

// EventKind classifies one transaction event.
type EventKind uint8

const (
	// EvBegin marks transaction begin; Arg is unused.
	EvBegin EventKind = iota + 1
	// EvLockWait marks a completed transactional lock wait; Arg is
	// the lock name's hash, Arg2 the wait in nanoseconds.
	EvLockWait
	// EvLatchWait marks a sampled slow latch acquisition; Arg is the
	// tier's rank (internal/invariant), Arg2 the time-to-acquire in
	// nanoseconds. Txn is 0
	// (latches are not transaction-scoped).
	EvLatchWait
	// EvLogAppend marks a WAL record append; Arg is the record type,
	// Arg2 the encoded size in bytes.
	EvLogAppend
	// EvCommit marks commit completion; Arg is unused.
	EvCommit
	// EvAbort marks abort completion; Arg is unused.
	EvAbort
)

var eventKindNames = [...]string{
	EvBegin: "begin", EvLockWait: "lock-wait", EvLatchWait: "latch-wait",
	EvLogAppend: "log-append", EvCommit: "commit", EvAbort: "abort",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// traceLatchWaitMin is the threshold past which a sampled latch
// acquisition is worth a trace event (1 microsecond: an uncontended
// acquire is tens of nanoseconds, so anything past this waited).
const traceLatchWaitMin = 1000

// Event is one traced transaction event.
type Event struct {
	TS   int64 // monotonic nanoseconds since TimeBase()
	Txn  uint64
	Kind EventKind
	Arg  uint64
	Arg2 uint64
}

// Tracer ring geometry. 32 stripes x 256 slots x 48 bytes = 384 KiB
// of fixed global footprint; at six events per transaction the rings
// hold the last ~1300 transactions' worth of activity.
const (
	nTraceStripes = 32
	ringSlots     = 256
	ringMask      = ringSlots - 1
)

// slot holds one event entirely in atomics plus a seqlock word, so
// concurrent Record and Dump race on nothing. The writer publishes
// seq = 2*idx+2 only after the fields are stored; a reader accepts a
// slot only if it observes the same even seq before and after reading
// the fields. Two writers can collide on a slot only when the ring
// wraps a full revolution during one write — 256 events on one stripe
// inside a ~10 ns window — and even then the seq check makes the
// reader drop the slot rather than surface a frankenevent.
type slot struct {
	seq  atomic.Uint64 // 2*idx+1 while writing, 2*idx+2 when complete
	ts   atomic.Int64
	txn  atomic.Uint64
	karg atomic.Uint64 // kind in the top byte, Arg in the low 56 bits
	arg2 atomic.Uint64
}

type traceStripe struct {
	head  atomic.Uint64
	_     [56]byte
	slots [ringSlots]slot
}

// Tracer is the transaction event tracer: striped fixed-size rings
// that goroutines append to by per-goroutine hint. Recording is a few
// atomic stores when enabled and a single atomic load when disabled;
// it never allocates and never blocks. Dump (on demand, from the
// /trace endpoint or a debugger) merges the rings into time order.
type Tracer struct {
	enabled atomic.Bool
	stripes [nTraceStripes]traceStripe
}

// Trace is the process-global tracer (same rationale as the latch
// profiles: events originate in code with no engine handle).
var Trace Tracer

// SetEnabled switches recording on or off. The rings retain whatever
// they held; disabling just stops new writes.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether recording is on.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Record appends one event if the tracer is enabled.
func (t *Tracer) Record(kind EventKind, txn, arg, arg2 uint64) {
	if !t.enabled.Load() {
		return
	}
	s := &t.stripes[stripeIdx()&(nTraceStripes-1)]
	idx := s.head.Add(1) - 1
	sl := &s.slots[idx&ringMask]
	sl.seq.Store(2*idx + 1)
	sl.ts.Store(Now())
	sl.txn.Store(txn)
	sl.karg.Store(uint64(kind)<<56 | arg&(1<<56-1))
	sl.arg2.Store(arg2)
	sl.seq.Store(2*idx + 2)
}

// TraceEvent records one event on the global tracer.
func TraceEvent(kind EventKind, txn, arg, arg2 uint64) {
	Trace.Record(kind, txn, arg, arg2)
}

// readSlot copies one slot if it holds a complete event, using the
// seqlock protocol: accept only if the same even seq is observed
// before and after reading the fields.
func readSlot(sl *slot, ev *Event) bool {
	seq1 := sl.seq.Load()
	if seq1 == 0 || seq1&1 != 0 {
		return false
	}
	ev.TS = sl.ts.Load()
	ev.Txn = sl.txn.Load()
	karg := sl.karg.Load()
	ev.Kind = EventKind(karg >> 56)
	ev.Arg = karg & (1<<56 - 1)
	ev.Arg2 = sl.arg2.Load()
	return sl.seq.Load() == seq1 // torn if a writer got in between
}

// Dump returns the retained events in timestamp order. Slots caught
// mid-write (or never written) are skipped.
func (t *Tracer) Dump() []Event { return t.DumpFiltered(0, 0) }

// DumpFiltered returns retained events in timestamp order, keeping
// only transaction txn when txn != 0 and, when max > 0, only the max
// most recent matching events. It is the /trace endpoint's workhorse:
// the filter makes per-transaction forensics cheap and the cap bounds
// the response on a busy server.
func (t *Tracer) DumpFiltered(txn uint64, max int) []Event {
	out := make([]Event, 0, nTraceStripes*ringSlots/4)
	var ev Event
	for i := range t.stripes {
		s := &t.stripes[i]
		for j := range s.slots {
			if !readSlot(&s.slots[j], &ev) {
				continue
			}
			if txn != 0 && ev.Txn != txn {
				continue
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:] // most recent wins under a cap
	}
	return out
}

// CollectTxn appends the retained events of transaction txn to buf,
// never growing it past its capacity (newer events displace older
// ones when full) and never allocating: the slow-transaction
// reservoir calls it from the admission path with a fixed-size
// buffer. Events are returned in timestamp order.
func (t *Tracer) CollectTxn(txn uint64, buf []Event) []Event {
	if txn == 0 || cap(buf) == 0 {
		return buf
	}
	var ev Event
	for i := range t.stripes {
		s := &t.stripes[i]
		for j := range s.slots {
			if !readSlot(&s.slots[j], &ev) || ev.Txn != txn {
				continue
			}
			if len(buf) < cap(buf) {
				buf = append(buf, ev)
				// Insertion sort by TS: the buffer is small (the
				// reservoir passes 32 slots), so this stays cheap
				// and allocation-free where sort.Slice would not.
				for k := len(buf) - 1; k > 0 && buf[k].TS < buf[k-1].TS; k-- {
					buf[k], buf[k-1] = buf[k-1], buf[k]
				}
				continue
			}
			// Full: displace the oldest (buf[0]) iff ev is newer.
			if ev.TS > buf[0].TS {
				copy(buf, buf[1:])
				buf[len(buf)-1] = ev
				for k := len(buf) - 1; k > 0 && buf[k].TS < buf[k-1].TS; k-- {
					buf[k], buf[k-1] = buf[k-1], buf[k]
				}
			}
		}
	}
	return buf
}

// Len returns the number of events currently retained (dump-sized
// bookkeeping for the /metrics surface).
func (t *Tracer) Len() int {
	n := 0
	for i := range t.stripes {
		h := t.stripes[i].head.Load()
		if h > ringSlots {
			h = ringSlots
		}
		n += int(h)
	}
	return n
}
