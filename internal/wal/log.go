package wal

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/invariant"
	"hydra/internal/obs"
)

// BufferKind selects the log-insert algorithm, the subject of
// experiment E2 (claim C6: extracting parallelism from logging).
type BufferKind int

const (
	// Serial is the conventional design: every record copies into
	// the log buffer under one mutex (wal.Log.mu), so the critical
	// section grows with record size.
	Serial BufferKind = iota
	// Decoupled reserves its LSN range with one atomic add and copies
	// outside any lock, with out-of-order completion tracking
	// (Aether's "D" variant).
	Decoupled
	// Consolidated adds the consolidation array in front of the
	// decoupled path: concurrent inserters combine into a single
	// reservation, so reservations per record approach zero under
	// load (Aether's "CD" variant).
	Consolidated
)

var bufferKindNames = map[BufferKind]string{
	Serial: "serial", Decoupled: "decoupled", Consolidated: "consolidated",
}

func (k BufferKind) String() string {
	if s, ok := bufferKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// BufferKinds lists the insert algorithms in sweep order.
func BufferKinds() []BufferKind { return []BufferKind{Serial, Decoupled, Consolidated} }

// Options configures a Log.
type Options struct {
	// Kind selects the insert algorithm. Default Serial.
	Kind BufferKind
	// BufferSize is the ring buffer capacity in bytes; rounded up to
	// a power of two. Default 8 MiB.
	BufferSize int
	// FlushInterval is the longest a filled record may wait before a
	// background flush. Default 1ms.
	FlushInterval time.Duration
	// SyncOnFlush forces Device.Sync after each flush write (needed
	// for durability; disable only in CPU-bound experiments).
	SyncOnFlush bool
}

// consSlots is the consolidation array width.
const consSlots = 8

func (o *Options) fill() {
	if o.BufferSize <= 0 {
		o.BufferSize = 8 << 20
	}
	// Round to power of two.
	n := 1
	for n < o.BufferSize {
		n <<= 1
	}
	o.BufferSize = n
	if o.FlushInterval <= 0 {
		o.FlushInterval = time.Millisecond
	}
}

// Stats are cumulative log-manager counters; the tags define each
// metric for every surface (DESIGN.md §7).
type Stats struct {
	Inserts       uint64 `json:"inserts"` // records inserted
	InsertedBytes uint64 `json:"inserted_bytes"`
	Flushes       uint64 `json:"flushes"` // flush IOs issued
	FlushedBytes  uint64 `json:"flushed_bytes"`
	MutexAcquires uint64 `json:"mutex_acquires"` // reservations of log space, one atomic add each; a Serial record also enters the copy mutex once (consolidation wins show here)
	GroupInserts  uint64 `json:"group_inserts"`  // records that joined a consolidation group led by another
	FlushWrites   uint64 `json:"flush_writes"`   // write submissions issued by the flusher (a vectored submission counts once)
	FlushSyncs    uint64 `json:"flush_syncs"`    // Device.Sync calls issued by the flusher

	// What started each flush; the three sum to Flushes. Demand: a
	// committer, a WAL-rule caller or Close was waiting on the durable
	// frontier. Pressure: the ring was more than half full. Tick: the
	// FlushInterval timer found records nobody was waiting for.
	FlushesDemand   uint64 `json:"flushes_demand"`
	FlushesPressure uint64 `json:"flushes_pressure"`
	FlushesTick     uint64 `json:"flushes_tick"`

	// DeviceStats carries the device-side submission counters: the
	// syscall-shaped ground truth behind FlushWrites/FlushSyncs.
	// Embedded, so they sit flat beside the log's own counters on the
	// wire (log.dev_*).
	DeviceStats
}

// Log is the log manager: an in-memory ring buffer filled by Insert
// and drained to a Device by a background flusher, with group commit.
type Log struct {
	opts Options
	dev  Device

	// res issues reservations: one Add(1<<lsnBits | n) returns the
	// next LSN in the low lsnBits bits and the next ticket in fr in the
	// bits above, where it counts modulo 2 × frontierMarks. An LSN is
	// thus limited to 2^lsnBits bytes of log: 2 PiB at 4096 marks.
	res     atomic.Uint64
	lsnBits uint

	mu invariant.Mutex[invariant.WALLog] // Serial's copy lock, held around place and filled

	ring ringBuf
	fr   *frontier
	ca   *consArray

	flushed atomic.Uint64 // durable LSN frontier

	// Goroutines parked on the durable frontier (waitFor): each pushes
	// its waiter onto arrivals, and the flusher takes them over into
	// waiting and wakes each exactly once — when flushed reaches its
	// target — instead of every waiter waking (and mostly going back to
	// sleep) on every flush advance of a shared condvar.
	arrivals atomic.Pointer[commitWaiter]
	waiting  *commitWaiter // guarded by flushOnceMu
	parked   atomic.Int32  // goroutines in waitFor; see filled

	kick        chan struct{}
	kickCause   atomic.Uint32 // flushCause bits of the kicks since the flusher last woke
	done        chan struct{}
	stopped     chan struct{} // closed as the flusher returns; nil: no flusher (newLog)
	closed      atomic.Bool
	flushOnceMu sync.Mutex   // serializes flushOnce (flusher vs Close) and the waiter sweeps
	flusherErr  atomic.Value // error from a failed flush, poisons the log

	// Vectored-submission scratch, reused across flushes (guarded by
	// flushOnceMu).
	vecOffs []int64
	vecBufs [][]byte

	// stats are striped cumulative counters (obs.Counter): the log is
	// the construct the consolidation array decentralizes, so its own
	// bookkeeping must not reintroduce a shared hot word.
	stats struct {
		inserts, insertedBytes  obs.Counter
		flushes, flushedBytes   obs.Counter
		mutexAcquires, groupIns obs.Counter
		flushWrites, flushSyncs obs.Counter
		flushesBy               [numFlushCauses]obs.Counter
	}
}

// flushCause says what started a flush.
type flushCause uint32

const (
	causeTick flushCause = iota
	causePressure
	causeDemand
	numFlushCauses
)

type ringBuf struct {
	buf  []byte
	mask uint64
}

func (r *ringBuf) copyIn(off uint64, b []byte) {
	i := off & r.mask
	n := copy(r.buf[i:], b)
	if n < len(b) {
		copy(r.buf, b[n:])
	}
}

// slices returns the one or two contiguous ring regions covering
// [start, end).
func (r *ringBuf) slices(start, end uint64) ([]byte, []byte) {
	if start == end {
		return nil, nil
	}
	i, j := start&r.mask, end&r.mask
	if i < j {
		return r.buf[i:j], nil
	}
	return r.buf[i:], r.buf[:j]
}

// New creates a log manager over dev, continuing the log found on it.
func New(dev Device, opts Options) (*Log, error) { return NewFrom(dev, opts, 0) }

// NewFrom is New for a caller that knows a record boundary inside the
// log (the engine: its last checkpoint), sparing the scan for the end
// of log everything below it. The next LSN is the end of the last
// valid record at or after from; a torn record or preallocated space
// past it is dropped from the device before the first append, so no
// later scan can mistake it for log.
func NewFrom(dev Device, opts Options, from LSN) (*Log, error) {
	opts.fill()
	if opts.BufferSize < EncodedSize(MaxPayload) {
		return nil, fmt.Errorf("wal: buffer %d smaller than max record", opts.BufferSize)
	}
	end, err := findEnd(dev, from)
	if err != nil {
		return nil, err
	}
	l := newLog(dev, opts, uint64(end))
	l.stopped = make(chan struct{})
	go l.flusher()
	return l, nil
}

// newLog returns a log over dev whose records end at end, with filled
// opts and no flusher running.
func newLog(dev Device, opts Options, end uint64) *Log {
	l := &Log{
		opts: opts,
		dev:  dev,
		ring: ringBuf{buf: make([]byte, opts.BufferSize), mask: uint64(opts.BufferSize) - 1},
		fr:   newFrontier(end),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	l.lsnBits = uint(64 - bits.Len64(l.fr.tmask))
	l.res.Store(end)
	l.flushed.Store(end)
	if opts.Kind == Consolidated {
		l.ca = newConsArray(consSlots)
	}
	return l
}

// findEnd scans dev forward from the record boundary from (the start
// of the log when from lies beyond the device) and makes the end of the
// last valid record the device's end of log.
func findEnd(dev Device, from LSN) (LSN, error) {
	sc, err := NewScanner(dev, from)
	if err != nil {
		return 0, err
	}
	if sc.pos > sc.end {
		sc.pos = 0
	}
	for sc.Next() {
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if sc.pos < sc.end {
		if err := dev.SetEnd(sc.pos); err != nil {
			return 0, err
		}
	}
	return sc.Pos(), nil
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Append encodes and inserts a record, returning its LSN. It does not
// wait for durability; use WaitFlushed for commit semantics.
func (l *Log) Append(r *Record) (LSN, error) {
	return l.AppendFields(r.Type, r.TxnID, r.PrevLSN, r.PageID, r.UndoNext, r.Payload)
}

// AppendFields encodes and inserts a record given directly by its
// fields, sparing hot paths the per-record *Record allocation.
func (l *Log) AppendFields(typ RecType, txnID uint64, prev LSN, pageID uint64, undoNext LSN, payload []byte) (LSN, error) {
	return l.AppendFieldsC(typ, txnID, prev, pageID, undoNext, payload, nil, nil)
}

// AppendFieldsC is AppendFields with a stamp and a phase clock. A
// non-nil stamp receives the record's LSN before the record joins the
// filled prefix (see Log.place): once FilledLSN has passed the record,
// the stamp is visible to whoever loaded it. Time the insert
// spends blocked (ring full, a lapping ticket, Serial's copy lock,
// consolidation-group waits) is attributed to the clock's log-insert
// phase. Nil for both makes it identical to AppendFields.
func (l *Log) AppendFieldsC(typ RecType, txnID uint64, prev LSN, pageID uint64, undoNext LSN, payload []byte, stamp *atomic.Uint64, c *obs.PhaseClock) (LSN, error) {
	size := EncodedSize(len(payload))
	buf := encBufPool.Get().(*[]byte)
	invariant.PoolGot("wal.encBufPool", buf)
	if cap(*buf) < size {
		*buf = make([]byte, size)
	}
	b := (*buf)[:size]
	if _, err := encodeFields(b, typ, txnID, prev, pageID, undoNext, payload); err != nil {
		invariant.PoolPut("wal.AppendFields(encode error)", buf)
		encBufPool.Put(buf)
		return 0, err
	}
	lsn, err := l.insert(b, stamp, c)
	invariant.PoolPut("wal.AppendFields", buf)
	encBufPool.Put(buf)
	obs.TraceEvent(obs.EvLogAppend, txnID, uint64(typ), uint64(size))
	return lsn, err
}

var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// Insert places an already-encoded record into the log and returns
// its LSN. The insert algorithm is chosen by Options.Kind.
func (l *Log) Insert(rec []byte) (LSN, error) { return l.insert(rec, nil, nil) }

func (l *Log) insert(rec []byte, stamp *atomic.Uint64, c *obs.PhaseClock) (LSN, error) {
	if l.closed.Load() {
		return 0, ErrClosed
	}
	if err := l.poisoned(); err != nil {
		// A dead flusher can never drain the ring: refusing new
		// records here keeps inserters from filling it and hanging.
		return 0, err
	}
	if len(rec) < headerSize || len(rec) > l.opts.BufferSize/2 {
		return 0, fmt.Errorf("wal: record size %d out of range", len(rec))
	}
	if l.opts.Kind == Consolidated {
		return l.insertConsolidated(rec, stamp, c)
	}
	n := uint64(len(rec))
	lsn, ticket, err := l.reserve(n, c)
	if err != nil {
		return 0, err
	}
	if l.opts.Kind == Serial {
		t0 := l.lockInsertMu(c)
		l.place(lsn, rec, stamp) // copy under the mutex: the serial pathology
		l.filled(ticket, lsn+n)
		l.mu.Unlock()
		l.noteInsertWait(c, t0)
	} else {
		l.place(lsn, rec, stamp)
		l.filled(ticket, lsn+n)
	}
	l.noteInsert(n)
	return LSN(lsn), nil
}

// poisoned returns the flusher's fatal error, if it died.
func (l *Log) poisoned() error {
	if err, ok := l.flusherErr.Load().(error); ok && err != nil {
		return err
	}
	return nil
}

// poison records the log's fatal error. Only the first poisoner's
// error sticks (CompareAndSwap from nil), which also keeps the
// atomic.Value single-typed however many paths race to report death.
func (l *Log) poison(err error) {
	l.flusherErr.CompareAndSwap(nil, err)
}

// reserve issues n bytes of log space and their ticket in the fill
// frontier with one add on res, then waits outside any lock: while the
// ticket would lap the frontier's ring of marks, then while the ring
// has no room for the bytes. Both waits fail once the log is dead
// (poisoned, or closed with its final flush made), and only a dead log
// fails them: a reservation that fails after its add never completes
// its ticket, so it leaves a gap the filled frontier never passes, and
// the tickets a ring past it wait on a head that never moves. Time
// spent waiting goes to the clock's log-insert phase.
func (l *Log) reserve(n uint64, c *obs.PhaseClock) (lsn, ticket uint64, err error) {
	l.stats.mutexAcquires.Inc()
	add := uint64(1)<<l.lsnBits | n
	w := l.res.Add(add) - add
	lsn, ticket = w&(uint64(1)<<l.lsnBits-1), w>>l.lsnBits
	size, end := uint64(l.opts.BufferSize), lsn+n
	// Inserts alone never start a flush — the commit record that
	// follows a transaction's first records would miss it — except to
	// keep a filling ring from becoming a full one.
	if end-l.flushed.Load() > size/2 {
		l.kickFlusher(causePressure)
	}
	if end-l.flushed.Load() <= size && !l.fr.full(ticket, lsn) {
		return lsn, ticket, nil
	}
	if c != nil {
		t0 := obs.Now()
		defer func() { c.Add(obs.PhaseLogInsert, obs.Now()-t0) }()
	}
	for l.fr.full(ticket, lsn) {
		// An earlier reservation has not completed: it is copying, or
		// waiting for room, or failed on a dead log.
		if err := l.deadErr(); err != nil {
			return 0, 0, err
		}
		runtime.Gosched()
	}
	if end-l.flushed.Load() > size {
		if err := l.waitFor(end-size, causePressure); err != nil {
			return 0, 0, err
		}
	}
	return lsn, ticket, nil
}

// testHookPlaced, when set, runs between a writer's place of the
// record at lsn and its reservation's completion: tests use it to
// reorder completions.
var testHookPlaced func(lsn uint64)

// place copies rec into the ring at lsn, then stores stamp, before the
// reservation completes: so every record below FilledLSN has stored
// its stamp, and a reader that loads FilledLSN first sees each of
// them. A record that starts exactly at the frontier may be stamped
// and not yet filled.
func (l *Log) place(lsn uint64, rec []byte, stamp *atomic.Uint64) {
	l.ring.copyIn(lsn, rec)
	if stamp != nil {
		stamp.Store(lsn)
	}
	if testHookPlaced != nil {
		testHookPlaced(lsn)
	}
}

// filled completes reservation ticket, which ends at end. A committer
// whose own record is in the ring but sits behind a slower writer's gap
// kicks the flusher in vain; when the gap closes with such a committer
// parked, the writer that closed it passes the kick on.
func (l *Log) filled(ticket, end uint64) {
	if l.fr.complete(ticket, end) && l.parked.Load() > 0 {
		l.kickFlusher(causeDemand)
	}
}

// lockInsertMu acquires Serial's copy lock. With a clock, the
// try-first fast path costs one extra branch when the mutex is free; a
// contended acquisition returns its start stamp so the caller can
// finalize the attribution with noteInsertWait AFTER releasing the
// mutex — no clock read ever executes inside the copy's critical
// section. Returns 0 when there is nothing to attribute.
//
//hydra:vet:nonpropagating -- returns holding l.mu for the caller's copy critical section
func (l *Log) lockInsertMu(c *obs.PhaseClock) int64 {
	if c == nil {
		l.mu.Lock()
		return 0
	}
	if l.mu.TryLock() {
		return 0
	}
	t0 := obs.Now()
	l.mu.Lock()
	return t0
}

// noteInsertWait attributes a contended copy-lock acquisition that
// lockInsertMu stamped. Called after l.mu.Unlock(), so the measured
// span covers wait plus the caller's (short) critical section; the
// uncontended path attributes nothing.
func (l *Log) noteInsertWait(c *obs.PhaseClock, t0 int64) {
	if t0 != 0 {
		c.Add(obs.PhaseLogInsert, obs.Now()-t0)
	}
}

func (l *Log) noteInsert(n uint64) {
	l.stats.inserts.Add(1)
	l.stats.insertedBytes.Add(n)
}

// kickFlusher wakes the flush daemon, noting why. The cause is
// published before the wakeup, so the flusher that consumes the kick
// sees it.
func (l *Log) kickFlusher(why flushCause) {
	if bit := uint32(1) << why; l.kickCause.Load()&bit == 0 {
		l.kickCause.Or(bit)
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// FlushedLSN returns the durable frontier: every record with
// LSN+len <= FlushedLSN survives a crash.
func (l *Log) FlushedLSN() LSN { return LSN(l.flushed.Load()) }

// FilledLSN returns the contiguously-filled buffer frontier. Every
// record below it has stored its stamp (AppendFieldsC).
func (l *Log) FilledLSN() LSN { return LSN(l.fr.Filled()) }

// NextLSN returns the next LSN to be allocated (the current end of
// the log stream).
func (l *Log) NextLSN() LSN { return LSN(l.res.Load() & (uint64(1)<<l.lsnBits - 1)) }

// commitWaiter is one goroutine parked on the durable frontier (a
// committer or a ring-full inserter): ch receives exactly one value,
// nil once the frontier reaches target, or the error the log died
// with. next links the list it is on.
type commitWaiter struct {
	target uint64
	ch     chan error
	next   *commitWaiter
}

// waiterPool recycles waiters with their one-shot channels.
var waiterPool = sync.Pool{New: func() any { return &commitWaiter{ch: make(chan error, 1)} }}

// WaitFlushed blocks until the log is durable up to and including the
// record that starts at lsn (group commit). It returns early with an
// error if the log is closed or the flusher failed.
func (l *Log) WaitFlushed(lsn LSN) error { return l.WaitFlushedC(lsn, nil) }

// WaitFlushedC is WaitFlushed with a phase clock: time parked waiting
// for the durable frontier is attributed to the flush-wait phase. The
// already-durable fast path performs no clock reads at all.
func (l *Log) WaitFlushedC(lsn LSN, c *obs.PhaseClock) error {
	target := uint64(lsn) + 1 // any byte past the record start implies record scheduling order; callers pass end-1 semantics via RecordEnd
	if l.flushed.Load() >= target {
		// Already durable: no registration, no mutex beyond this load.
		if err, ok := l.flusherErr.Load().(error); ok && err != nil {
			return err
		}
		return nil
	}
	if c == nil {
		return l.waitFor(target, causeDemand)
	}
	// The span's closing stamp is deferred to the transaction fold:
	// commit durability is the last wait a transaction performs, so the
	// fold's end-of-transaction Now closes it microseconds late — noise
	// against a group-commit wait — and the commit path saves one clock
	// read.
	t0 := obs.Now()
	err := l.waitFor(target, causeDemand)
	c.Defer(obs.PhaseFlushWait, t0)
	return err
}

// waitFor parks until the durable frontier reaches target, or the log
// dies: the log's one wait, for a committer's record or a ring-full
// inserter's room. It takes no lock on a live log. The waiter goes onto
// the arrival list before the kick, so the flush the kick starts takes
// it in.
func (l *Log) waitFor(target uint64, cause flushCause) error {
	l.parked.Add(1) // before the kick: see filled
	defer l.parked.Add(-1)
	w := waiterPool.Get().(*commitWaiter)
	invariant.PoolGot("wal.waiterPool", w)
	w.target = target
	for {
		w.next = l.arrivals.Load()
		if l.arrivals.CompareAndSwap(w.next, w) {
			break
		}
	}
	l.kickFlusher(cause)
	if err := l.deadErr(); err != nil {
		// The last sweep may have run before the push, and no flush
		// will take the waiter in: sweep it here.
		l.failWaiters(err)
	}
	err := <-w.ch
	invariant.PoolPut("wal.waitFor", w)
	waiterPool.Put(w)
	return err
}

// deadErr returns the error of a log whose waiters no flush will serve:
// the fatal error once the log is poisoned, ErrClosed once Close has
// made its final flush, else nil.
func (l *Log) deadErr() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	select {
	case <-l.done:
		return ErrClosed
	default:
		return nil
	}
}

// wake wakes each waiter, the arrivals included, whose target the
// durable frontier has reached, and with a non-nil err every other one.
// Caller holds flushOnceMu. The sends cannot block: each waiter's
// channel has capacity 1, and a waiter leaves the lists once.
//
//hydra:vet:nonpropagating -- wakeup sends go to capacity-1 channels, one send per waiter taken off the lists
func (l *Log) wake(err error) {
	var kept *commitWaiter
	flushed := l.flushed.Load()
	for _, w := range [2]*commitWaiter{l.arrivals.Swap(nil), l.waiting} {
		for w != nil {
			next := w.next
			switch {
			case w.target <= flushed:
				w.ch <- nil
			case err != nil:
				w.ch <- err
			default:
				w.next, kept = kept, w
			}
			w = next
		}
	}
	l.waiting = kept
}

// failWaiters wakes every waiter (flusher death or close): those the
// durable frontier has reached with nil, the rest with err.
func (l *Log) failWaiters(err error) {
	l.flushOnceMu.Lock()
	defer l.flushOnceMu.Unlock()
	l.wake(err)
}

// CommitWaiters returns the number of goroutines currently parked on
// the durable frontier. The stall flight recorder polls it together
// with FlushedLSN: waiters present while the frontier stands still is
// the signature of a stuck flusher.
func (l *Log) CommitWaiters() int { return int(l.parked.Load()) }

// Flush forces all filled records to stable storage before returning.
func (l *Log) Flush() error {
	target := uint64(l.NextLSN())
	if target == 0 {
		return nil
	}
	return l.WaitFlushed(LSN(target - 1))
}

// Close flushes, stops the background flusher and waits for it to return.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	flushErr := l.flushOnce(causeDemand) // final synchronous drain
	if flushErr != nil {
		// The drain failed: records still in the ring will never become
		// durable.
		l.poison(flushErr)
	}
	close(l.done)
	if l.stopped != nil {
		<-l.stopped // even a flush it began on a kick taken over done ends first
	}
	// Any waiter the final drain did not satisfy can never be: fail
	// it with the flusher's error, or ErrClosed.
	werr := flushErr
	if err, ok := l.flusherErr.Load().(error); ok && err != nil {
		werr = err
	}
	if werr == nil {
		werr = ErrClosed
	}
	l.failWaiters(werr)
	if err, ok := l.flusherErr.Load().(error); ok && err != nil {
		return err
	}
	return flushErr
}

// StatsSnapshot returns a copy of the cumulative counters.
func (l *Log) StatsSnapshot() Stats {
	return Stats{
		Inserts:       l.stats.inserts.Load(),
		InsertedBytes: l.stats.insertedBytes.Load(),
		Flushes:       l.stats.flushes.Load(),
		FlushedBytes:  l.stats.flushedBytes.Load(),
		MutexAcquires: l.stats.mutexAcquires.Load(),
		GroupInserts:  l.stats.groupIns.Load(),
		FlushWrites:   l.stats.flushWrites.Load(),
		FlushSyncs:    l.stats.flushSyncs.Load(),

		FlushesDemand:   l.stats.flushesBy[causeDemand].Load(),
		FlushesPressure: l.stats.flushesBy[causePressure].Load(),
		FlushesTick:     l.stats.flushesBy[causeTick].Load(),

		DeviceStats: l.dev.DeviceStats(),
	}
}

// flusher is the flush daemon. Nothing an insert does wakes it (bar
// ring pressure): it runs when somebody needs the durable frontier to
// move, and each run takes everything filled so far, so the records
// that arrived while the device was busy share the next sync. That is
// the whole group-commit policy — there is no gather delay to tune.
func (l *Log) flusher() {
	defer close(l.stopped)
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
		case <-ticker.C:
		}
		// Coalesce every wakeup signal that is already pending: the
		// flush about to run covers whatever those kicks announced, so
		// consuming them now spares redundant no-op flush cycles.
		l.drainWakeups(ticker)
		if err := l.flushOnce(l.takeCause()); err != nil {
			// The frontier will never advance again: fail every waiter,
			// committers and ring-full inserters alike.
			l.poison(err)
			l.failWaiters(err)
			return
		}
		// The tick is for records nobody asks about: it counts from the
		// last flush, so a log kept flushing by its committers never
		// pays a sync for a transaction's first records on the side.
		ticker.Reset(l.opts.FlushInterval)
	}
}

// takeCause consumes the causes of the kicks since the last call and
// returns the strongest; with no kick, the wakeup was the tick.
func (l *Log) takeCause() flushCause {
	bits := l.kickCause.Swap(0)
	switch {
	case bits&(1<<causeDemand) != 0:
		return causeDemand
	case bits != 0:
		return causePressure
	}
	return causeTick
}

// drainWakeups consumes pending kick and tick signals without
// blocking.
func (l *Log) drainWakeups(ticker *time.Ticker) {
	for {
		select {
		case <-l.kick:
		case <-ticker.C:
		default:
			return
		}
	}
}

// flushOnce writes [flushed, filled) to the device, advances the
// durable frontier and wakes the waiters it satisfied. Both wrap-around
// ring slices go down as one vectored submission. With nothing to
// write it still takes the arrivals in: a waiter that arrived after the
// last wake is served by the flush its own kick starts.
func (l *Log) flushOnce(cause flushCause) error {
	l.flushOnceMu.Lock()
	defer l.flushOnceMu.Unlock()
	start := l.flushed.Load()
	end := l.fr.Filled()
	if end <= start {
		l.wake(nil)
		return nil
	}
	a, b := l.ring.slices(start, end)
	l.vecOffs = append(l.vecOffs[:0], int64(start))
	l.vecBufs = append(l.vecBufs[:0], a)
	if len(b) > 0 {
		l.vecOffs = append(l.vecOffs, int64(start)+int64(len(a)))
		l.vecBufs = append(l.vecBufs, b)
	}
	l.stats.flushWrites.Inc()
	if _, err := l.dev.WriteVec(l.vecOffs, l.vecBufs); err != nil {
		return fmt.Errorf("wal: flush write: %w", err)
	}
	if l.opts.SyncOnFlush {
		l.stats.flushSyncs.Inc()
		if err := l.dev.Sync(); err != nil {
			return fmt.Errorf("wal: flush sync: %w", err)
		}
	}
	l.flushed.Store(end)
	// Counted once it has entered every lock it takes, so whenever
	// FlushWrites equals Flushes no flush is part-way through them; and
	// before the wake, so a woken waiter sees its flush counted.
	l.stats.flushes.Add(1)
	l.stats.flushesBy[cause].Inc()
	l.stats.flushedBytes.Add(end - start)
	l.wake(nil)
	return nil
}
