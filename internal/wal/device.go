package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"hydra/internal/obs"
)

// Device is the stable storage the log is flushed to. Offsets are
// LSNs: the log file image is the concatenation of all records.
type Device interface {
	// WriteAt writes b at the given log offset.
	WriteAt(b []byte, off int64) (int, error)
	// ReadAt reads into b from the given log offset. Short reads at
	// end of log return io.EOF semantics via n < len(b).
	ReadAt(b []byte, off int64) (int, error)
	// Sync makes preceding writes durable.
	Sync() error
	// Size returns the current log length in bytes.
	Size() (int64, error)
	// Close releases the device.
	Close() error
}

// VectorWriter is the optional batched-submission interface: a device
// implementing it accepts a whole flush group — several (offset,
// buffer) pairs — as one call, so the flush daemon issues one
// submission per wakeup instead of one syscall per ring slice. The
// pairs must be sorted by offset and non-overlapping (the flusher's
// wrap-around slices are contiguous, which lets implementations
// gather adjacent pairs into single writes). The emulation today is
// gather-into-staging + pwrite per contiguous run; the interface is
// shaped so a pwritev or io_uring backend can slot in without
// touching the flush daemon.
type VectorWriter interface {
	// WriteVec writes each bufs[i] at offs[i] and returns the total
	// bytes written. len(offs) must equal len(bufs).
	WriteVec(offs []int64, bufs [][]byte) (int, error)
}

// EndSetter is the optional interface of a device that can hold bytes
// past the end of the log: a torn last record, or the never-written
// tail of a preallocated file. SetEnd(off) declares off the end of log
// and discards whatever lies beyond it, so Size reports off, reads past
// it come back short, and the region reads as zeros once the log grows
// over it again. New calls it with the end it found by scanning, before
// the first append.
type EndSetter interface {
	SetEnd(off int64) error
}

// DeviceStats are cumulative per-device submission counters — the
// syscall-shaped events behind a flush. They are the ground truth for
// the "1 vectored submission per touched segment, fsync only dirty"
// claim: obs-striped counters the Log surfaces through StatsSnapshot
// so /metrics and hydra-top can show submissions per flush live.
type DeviceStats struct {
	Writes       uint64 `json:"dev_writes" metric:"name=hydra_wal_dev_writes_total"`                 // physical write submissions (one per contiguous run / segment file)
	VecWrites    uint64 `json:"dev_vec_writes" metric:"name=hydra_wal_dev_vec_writes_total"`         // WriteVec calls (batched submissions)
	Syncs        uint64 `json:"dev_syncs" metric:"name=hydra_wal_dev_syncs_total"`                   // Sync calls
	SegSyncs     uint64 `json:"dev_seg_syncs" metric:"name=hydra_wal_dev_seg_syncs_total"`           // segment files actually fsynced
	SegSyncSkips uint64 `json:"dev_seg_sync_skips" metric:"name=hydra_wal_dev_seg_sync_skips_total"` // live segments skipped at Sync because clean
	Extends      uint64 `json:"dev_extends" metric:"name=hydra_wal_dev_extends_total"`               // preallocation steps (FileDevice: one per logChunk of log)
}

// StatsReporter is the optional device-counter surface.
type StatsReporter interface {
	DeviceStats() DeviceStats
}

// devCounters is the embedded obs-backed counter block shared by the
// Device implementations.
type devCounters struct {
	writes, vecWrites, syncs obs.Counter
	segSyncs, segSyncSkips   obs.Counter
	extends                  obs.Counter
}

func (c *devCounters) DeviceStats() DeviceStats {
	return DeviceStats{
		Writes:       c.writes.Load(),
		VecWrites:    c.vecWrites.Load(),
		Syncs:        c.syncs.Load(),
		SegSyncs:     c.segSyncs.Load(),
		SegSyncSkips: c.segSyncSkips.Load(),
		Extends:      c.extends.Load(),
	}
}

// logChunk is the step in which FileDevice preallocates its file ahead
// of the write frontier. Within a chunk a flush changes no file
// metadata (size, block map), so the fdatasync that follows it is a
// plain data write-out rather than a file-system journal commit.
const logChunk = 16 << 20

// FileDevice is a Device backed by one regular file whose offsets are
// LSNs. The file is preallocated in logChunk steps (space reserved, no
// data written), so it is usually longer than the log: the logical end
// is tracked here, found by New's scan after a crash, and a clean Close
// trims the file back to it.
type FileDevice struct {
	f *os.File

	// end is the logical end of log: what Size reports and ReadAt
	// clamps to. Until SetEnd or a write moves it, it is the file size
	// found at open — an upper bound the Scanner's zero-length-word
	// rule refines.
	end atomic.Int64
	// alloc is the file's physical size, end <= alloc.
	alloc atomic.Int64
	// extMu serializes changes of the file's extent (preallocation,
	// SetEnd).
	//
	//hydra:vet:coarse -- taken once per logChunk of log and at open; the protected operation is the file-size change itself
	extMu sync.Mutex

	// vecMu guards the staging buffer reused across WriteVec calls
	// (one flusher normally calls it, but the device must stay safe
	// under concurrent use). It is held across the write on purpose:
	// the staging buffer IS the IO buffer, so releasing before the
	// pwrite would let the next gather scribble over in-flight data.
	//
	//hydra:vet:coarse -- staging buffer doubles as the IO buffer; the write must complete before the next gather reuses it
	vecMu  sync.Mutex
	vecBuf []byte

	stats devCounters
}

// OpenFile opens (creating if needed) a file-backed log device.
func OpenFile(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	d := &FileDevice{f: f}
	d.end.Store(st.Size())
	d.alloc.Store(st.Size())
	return d, nil
}

// reserve makes sure the file covers [0, end), preallocating up to the
// next logChunk boundary when it does not.
func (d *FileDevice) reserve(end int64) error {
	if end <= d.alloc.Load() {
		return nil
	}
	d.extMu.Lock()
	defer d.extMu.Unlock()
	cur := d.alloc.Load()
	if end <= cur {
		return nil
	}
	to := (end + logChunk - 1) / logChunk * logChunk
	if err := preallocate(d.f, cur, to-cur); err != nil {
		return fmt.Errorf("wal: preallocate log to %d: %w", to, err)
	}
	d.alloc.Store(to)
	d.stats.extends.Inc()
	return nil
}

// extendSparse grows f to size without reserving blocks: the portable
// stand-in for fallocate. The sync puts the new size on disk now, so
// later data syncs inside the extension need not.
func extendSparse(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// wrote advances the logical end over a completed write.
func (d *FileDevice) wrote(end int64) {
	for {
		cur := d.end.Load()
		if end <= cur || d.end.CompareAndSwap(cur, end) {
			return
		}
	}
}

// WriteAt implements Device.
func (d *FileDevice) WriteAt(b []byte, off int64) (int, error) {
	d.stats.writes.Inc()
	if err := d.reserve(off + int64(len(b))); err != nil {
		return 0, err
	}
	n, err := d.f.WriteAt(b, off)
	d.wrote(off + int64(n))
	return n, err
}

// WriteVec implements VectorWriter: adjacent pairs are gathered into
// a staging buffer and written with one pwrite per contiguous run —
// the portable emulation of pwritev. A single-pair vector degenerates
// to one plain write with no copy.
func (d *FileDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if len(offs) != len(bufs) {
		return 0, fmt.Errorf("wal: WriteVec: %d offsets for %d buffers", len(offs), len(bufs))
	}
	d.stats.vecWrites.Inc()
	if k := len(offs); k > 0 {
		// Pairs are sorted by offset: the last one ends the vector.
		if err := d.reserve(offs[k-1] + int64(len(bufs[k-1]))); err != nil {
			return 0, err
		}
	}
	written := 0
	d.vecMu.Lock()
	defer d.vecMu.Unlock()
	for i := 0; i < len(offs); {
		// Extend the run while the next pair is adjacent.
		j, end := i+1, offs[i]+int64(len(bufs[i]))
		for j < len(offs) && offs[j] == end {
			end += int64(len(bufs[j]))
			j++
		}
		var run []byte
		if j == i+1 {
			run = bufs[i] // single buffer: write in place, no copy
		} else {
			need := int(end - offs[i])
			if cap(d.vecBuf) < need {
				d.vecBuf = make([]byte, need)
			}
			run = d.vecBuf[:0]
			for k := i; k < j; k++ {
				run = append(run, bufs[k]...)
			}
		}
		d.stats.writes.Inc()
		n, err := d.f.WriteAt(run, offs[i])
		written += n
		d.wrote(offs[i] + int64(n))
		if err != nil {
			return written, fmt.Errorf("wal: vectored write at %d: %w", offs[i], err)
		}
		i = j
	}
	return written, nil
}

// ReadAt implements Device. Reads stop at the logical end of log, not
// at the end of the preallocated file.
func (d *FileDevice) ReadAt(b []byte, off int64) (int, error) {
	lim := d.end.Load() - off
	if lim >= int64(len(b)) {
		return d.f.ReadAt(b, off)
	}
	if lim <= 0 {
		return 0, io.EOF
	}
	n, err := d.f.ReadAt(b[:lim], off)
	if err == nil {
		err = io.EOF
	}
	return n, err
}

// Sync implements Device. Data only: the file's size and block map
// change in reserve, never in a write.
func (d *FileDevice) Sync() error {
	d.stats.syncs.Inc()
	return datasync(d.f)
}

// Size implements Device: the logical end of log.
func (d *FileDevice) Size() (int64, error) { return d.end.Load(), nil }

// SetEnd implements EndSetter by cutting the file at off; the next
// write preallocates afresh, so the dropped bytes read back as zeros.
func (d *FileDevice) SetEnd(off int64) error {
	d.extMu.Lock()
	defer d.extMu.Unlock()
	if off < 0 || off > d.end.Load() {
		return fmt.Errorf("wal: set end %d outside log [0, %d]", off, d.end.Load())
	}
	if off < d.alloc.Load() {
		if err := d.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: cut log at %d: %w", off, err)
		}
		d.alloc.Store(off)
	}
	d.end.Store(off)
	return nil
}

// Close implements Device, trimming the preallocated tail first so a
// cleanly closed log file is exactly its records.
func (d *FileDevice) Close() error {
	var terr error
	if end := d.end.Load(); end < d.alloc.Load() {
		terr = d.f.Truncate(end)
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return terr
}

// DeviceStats implements StatsReporter.
func (d *FileDevice) DeviceStats() DeviceStats { return d.stats.DeviceStats() }

// MemDevice is an in-memory Device for tests and for CPU-bound
// experiments that must exclude disk latency. An optional per-sync
// artificial latency models a disk for group-commit experiments.
type MemDevice struct {
	mu        sync.Mutex
	data      []byte
	syncs     int
	writes    int    // write submissions (WriteAt calls + one per WriteVec)
	vecWrites int    // WriteVec calls
	SyncFn    func() // optional hook invoked (unlocked) on every Sync
	failAt    int64  // if >0, writes past this offset fail (fault injection)
	failErr   error
}

// NewMem returns an empty in-memory device.
func NewMem() *MemDevice { return &MemDevice{} }

// FailAfter arranges for any write that would extend the device past
// off to fail with err, simulating a full or dying disk.
func (d *MemDevice) FailAfter(off int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failAt, d.failErr = off, err
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(b []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	return d.writeAtLocked(b, off)
}

func (d *MemDevice) writeAtLocked(b []byte, off int64) (int, error) {
	end := off + int64(len(b))
	if d.failAt > 0 && end > d.failAt {
		return 0, d.failErr
	}
	if end > int64(len(d.data)) {
		if end > int64(cap(d.data)) {
			// Amortized doubling: naive reallocation would make every
			// small append O(device size).
			newCap := 2 * cap(d.data)
			if int64(newCap) < end {
				newCap = int(end)
			}
			grown := make([]byte, end, newCap)
			copy(grown, d.data)
			d.data = grown
		} else {
			d.data = d.data[:end]
		}
	}
	copy(d.data[off:], b)
	return len(b), nil
}

// WriteVec implements VectorWriter: the whole vector lands in one
// submission (memory has no seek cost, so no gathering is needed —
// the counter is what matters for tests asserting batch shape).
func (d *MemDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if len(offs) != len(bufs) {
		return 0, fmt.Errorf("wal: WriteVec: %d offsets for %d buffers", len(offs), len(bufs))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.vecWrites++
	d.writes++
	written := 0
	for i, b := range bufs {
		n, err := d.writeAtLocked(b, offs[i])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(b []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off >= int64(len(d.data)) {
		return 0, nil
	}
	n := copy(b, d.data[off:])
	return n, nil
}

// Sync implements Device.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	d.syncs++
	fn := d.SyncFn
	d.mu.Unlock()
	if fn != nil {
		fn()
	}
	return nil
}

// Syncs returns the number of Sync calls, for asserting group-commit
// batching in tests.
func (d *MemDevice) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Writes returns the number of write submissions (a WriteVec call
// counts once, whatever its vector length), for asserting flush batch
// shape in tests.
func (d *MemDevice) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// VecWrites returns the number of WriteVec calls.
func (d *MemDevice) VecWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.vecWrites
}

// DeviceStats implements StatsReporter.
func (d *MemDevice) DeviceStats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceStats{
		Writes:    uint64(d.writes),
		VecWrites: uint64(d.vecWrites),
		Syncs:     uint64(d.syncs),
	}
}

// Size implements Device.
func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.data)), nil
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// SetEnd implements EndSetter.
func (d *MemDevice) SetEnd(off int64) error {
	d.Truncate(off)
	return nil
}

// Truncate cuts the device at off, simulating a crash that lost the
// tail (including torn writes when off lands mid-record).
func (d *MemDevice) Truncate(off int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < int64(len(d.data)) {
		d.data = d.data[:off]
	}
}
