package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hydra/internal/invariant"
	"hydra/internal/obs"
)

// SegmentedDevice is a Device backed by a directory of fixed-size
// segment files (seg-<startLSN>.wal). Because segments are immutable
// once the log moves past them, whole old segments can be deleted
// after a checkpoint — the log-recycling mechanism every production
// WAL needs and a single flat file cannot provide.
//
// The device tracks which segments have been written since the last
// Sync and fsyncs only those: sync cost scales with dirty data, not
// with log history. (Before this, every group commit fsynced every
// live segment — O(live segments) syscalls per flush.) It also
// implements VectorWriter, turning a whole flush group into one write
// submission per touched segment file.
type SegmentedDevice struct {
	dir     string
	segSize int64

	// mu makes segment-map updates atomic with the file operations
	// that realize them (create/delete of segment files).
	//hydra:vet:coarse -- device-level lock: segment rotation must mutate the map and the file set atomically
	mu    sync.Mutex
	segs  map[int64]*os.File // start offset -> file
	dirty map[int64]struct{} // segments written since the last Sync
	size  int64              // logical end of log
	base  int64              // lowest retained offset (truncation point)

	// WriteVec scratch, reused across calls (guarded by mu).
	vecBuf    []byte
	vecChunks [][]byte

	stats devCounters
}

// OpenSegmented opens (creating if needed) a segmented device in dir.
// segSize is the per-segment capacity in bytes.
func OpenSegmented(dir string, segSize int64) (*SegmentedDevice, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("wal: segment size must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	d := &SegmentedDevice{
		dir: dir, segSize: segSize,
		segs:  make(map[int64]*os.File),
		dirty: make(map[int64]struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []int64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		start, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %s", name)
		}
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i, start := range starts {
		f, err := os.OpenFile(d.segPath(start), os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		d.segs[start] = f
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d.base = start
		}
		d.size = start + st.Size()
	}
	return d, nil
}

func (d *SegmentedDevice) segPath(start int64) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%020d.wal", start))
}

func (d *SegmentedDevice) segStart(off int64) int64 { return off - off%d.segSize }

// lock acquires d.mu with latch profiling and the hydradebug
// tier-order assertion.
func (d *SegmentedDevice) lock() {
	ls := obs.LatchStart(obs.TierWALDevice)
	d.mu.Lock()
	obs.LatchDone(obs.TierWALDevice, ls)
	invariant.Acquired(invariant.TierWALDevice, "wal.SegmentedDevice.mu")
}

func (d *SegmentedDevice) unlock() {
	invariant.Released(invariant.TierWALDevice, "wal.SegmentedDevice.mu")
	d.mu.Unlock()
}

// segFor returns (creating if needed) the segment containing off.
// Caller holds d.mu.
func (d *SegmentedDevice) segFor(off int64) (*os.File, error) {
	start := d.segStart(off)
	if f, ok := d.segs[start]; ok {
		return f, nil
	}
	f, err := os.OpenFile(d.segPath(start), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d.segs[start] = f
	return f, nil
}

// WriteAt implements Device, splitting writes at segment boundaries.
func (d *SegmentedDevice) WriteAt(b []byte, off int64) (int, error) {
	d.lock()
	defer d.unlock()
	d.stats.writes.Inc()
	written := 0
	for len(b) > 0 {
		start := d.segStart(off)
		f, err := d.segFor(off)
		if err != nil {
			return written, err
		}
		room := start + d.segSize - off
		chunk := b
		if int64(len(chunk)) > room {
			chunk = b[:room]
		}
		if _, err := f.WriteAt(chunk, off-start); err != nil {
			return written, fmt.Errorf("wal: segment write at %d: %w", off, err)
		}
		d.dirty[start] = struct{}{}
		written += len(chunk)
		off += int64(len(chunk))
		b = b[len(chunk):]
	}
	if off > d.size {
		d.size = off
	}
	return written, nil
}

// WriteVec implements VectorWriter: the vector is split at segment
// boundaries and submitted as ONE write per touched segment file —
// a run of several chunks (e.g. the flusher's two wrap-around ring
// slices landing in the same segment) is gathered into a staging
// buffer first; a single-chunk run is written in place with no copy.
func (d *SegmentedDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if len(offs) != len(bufs) {
		return 0, fmt.Errorf("wal: WriteVec: %d offsets for %d buffers", len(offs), len(bufs))
	}
	d.lock()
	defer d.unlock()
	d.stats.vecWrites.Inc()

	written := 0
	var (
		runStart int64 = -1 // device offset of the pending run
		runLen   int64
	)
	chunks := d.vecChunks[:0]

	flushRun := func() error {
		if runStart < 0 {
			return nil
		}
		f, err := d.segFor(runStart)
		if err != nil {
			return err
		}
		var run []byte
		if len(chunks) == 1 {
			run = chunks[0]
		} else {
			if int64(cap(d.vecBuf)) < runLen {
				d.vecBuf = make([]byte, runLen)
			}
			run = d.vecBuf[:0]
			for _, c := range chunks {
				run = append(run, c...)
			}
			d.vecBuf = run[:0]
		}
		d.stats.writes.Inc()
		if _, err := f.WriteAt(run, runStart-d.segStart(runStart)); err != nil {
			return fmt.Errorf("wal: vectored segment write at %d: %w", runStart, err)
		}
		d.dirty[d.segStart(runStart)] = struct{}{}
		written += len(run)
		if end := runStart + int64(len(run)); end > d.size {
			d.size = end
		}
		runStart, runLen = -1, 0
		chunks = chunks[:0]
		return nil
	}

	for i, b := range bufs {
		off := offs[i]
		for len(b) > 0 {
			start := d.segStart(off)
			room := start + d.segSize - off
			chunk := b
			if int64(len(chunk)) > room {
				chunk = b[:room]
			}
			// A chunk extends the pending run only if contiguous and in
			// the same segment; otherwise the run is submitted first.
			if runStart >= 0 && (off != runStart+runLen || d.segStart(runStart) != start) {
				if err := flushRun(); err != nil {
					d.vecChunks = chunks[:0]
					return written, err
				}
			}
			if runStart < 0 {
				runStart = off
			}
			chunks = append(chunks, chunk)
			runLen += int64(len(chunk))
			off += int64(len(chunk))
			b = b[len(chunk):]
		}
	}
	err := flushRun()
	d.vecChunks = chunks[:0] // keep the grown scratch, drop chunk refs
	return written, err
}

// ReadAt implements Device, splitting reads at segment boundaries.
// Reads below the truncation point return zero bytes read. Each chunk
// is clamped to the logical end of log, so bytes past d.size are
// never reported as read (a sparse or short segment tail within the
// log reads as zeros; beyond the log it is EOF, not data).
func (d *SegmentedDevice) ReadAt(b []byte, off int64) (int, error) {
	d.lock()
	defer d.unlock()
	read := 0
	for len(b) > 0 && off < d.size {
		start := d.segStart(off)
		room := start + d.segSize - off
		if lim := d.size - off; lim < room {
			room = lim
		}
		chunk := b
		if int64(len(chunk)) > room {
			chunk = b[:room]
		}
		f, ok := d.segs[start]
		if !ok {
			if start < d.base {
				return read, fmt.Errorf("wal: read at %d below truncation point %d", off, d.base)
			}
			// Never-written segment (sparse region): reads as zeros.
			for i := range chunk {
				chunk[i] = 0
			}
			read += len(chunk)
			off += int64(len(chunk))
			b = b[len(chunk):]
			continue
		}
		n, err := f.ReadAt(chunk, off-start)
		if n < len(chunk) && err != nil {
			// Short segment (sparse tail within a live segment): the
			// remainder reads as zeros up to the chunk length, which is
			// already clamped to the logical end of log.
			for i := n; i < len(chunk); i++ {
				chunk[i] = 0
			}
			n = len(chunk)
		}
		read += n
		off += int64(n)
		b = b[n:]
	}
	return read, nil
}

// Sync implements Device: only segments written since the last Sync
// are fsynced. A segment whose fsync fails stays dirty, so a retry
// covers it again.
func (d *SegmentedDevice) Sync() error {
	d.lock()
	defer d.unlock()
	d.stats.syncs.Inc()
	synced := 0
	for start := range d.dirty {
		f, ok := d.segs[start]
		if !ok {
			// Truncated away since it was written; nothing to make
			// durable.
			delete(d.dirty, start)
			continue
		}
		if err := f.Sync(); err != nil {
			return err
		}
		delete(d.dirty, start)
		synced++
	}
	d.stats.segSyncs.Add(uint64(synced))
	if skipped := len(d.segs) - synced; skipped > 0 {
		d.stats.segSyncSkips.Add(uint64(skipped))
	}
	return nil
}

// Size implements Device.
func (d *SegmentedDevice) Size() (int64, error) {
	d.lock()
	defer d.unlock()
	return d.size, nil
}

// SetEnd implements EndSetter: the segment holding off is cut there and
// every later segment deleted.
func (d *SegmentedDevice) SetEnd(off int64) error {
	d.lock()
	defer d.unlock()
	if off < d.base || off > d.size {
		return fmt.Errorf("wal: set end %d outside log [%d, %d]", off, d.base, d.size)
	}
	for start, f := range d.segs {
		switch {
		case start >= off:
			delete(d.segs, start)
			delete(d.dirty, start)
			if err := f.Close(); err != nil {
				return err
			}
			if err := os.Remove(d.segPath(start)); err != nil {
				return err
			}
		case start+d.segSize > off:
			if err := f.Truncate(off - start); err != nil {
				return fmt.Errorf("wal: cut segment %d at %d: %w", start, off, err)
			}
			d.dirty[start] = struct{}{}
		}
	}
	d.size = off
	return nil
}

// Close implements Device.
func (d *SegmentedDevice) Close() error {
	d.lock()
	defer d.unlock()
	var first error
	for _, f := range d.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.segs = make(map[int64]*os.File)
	d.dirty = make(map[int64]struct{})
	return first
}

// TruncateBefore deletes every segment that lies entirely below lsn.
// The caller guarantees no record at or above its recovery horizon
// lives below lsn (see core's truncation-point computation). It
// returns the number of segments removed. On error the offending
// segment has already been dropped from the live map — its file is
// closed (or in an unknown state), so retaining it would surface
// "file already closed" on every later read or sync.
func (d *SegmentedDevice) TruncateBefore(lsn LSN) (int, error) {
	d.lock()
	defer d.unlock()
	removed := 0
	for start, f := range d.segs {
		if start+d.segSize <= int64(lsn) {
			delete(d.segs, start)
			delete(d.dirty, start)
			if err := f.Close(); err != nil {
				return removed, err
			}
			if err := os.Remove(d.segPath(start)); err != nil {
				return removed, err
			}
			removed++
		}
	}
	if int64(lsn) > d.base {
		d.base = d.segStart(int64(lsn))
	}
	return removed, nil
}

// Base returns the lowest retained log offset.
func (d *SegmentedDevice) Base() int64 {
	d.lock()
	defer d.unlock()
	return d.base
}

// Segments returns the number of live segment files.
func (d *SegmentedDevice) Segments() int {
	d.lock()
	defer d.unlock()
	return len(d.segs)
}

// DirtySegments returns the number of segments written since the last
// Sync (test and monitoring surface for the dirty-set invariant).
func (d *SegmentedDevice) DirtySegments() int {
	d.lock()
	defer d.unlock()
	return len(d.dirty)
}

// DeviceStats implements StatsReporter.
func (d *SegmentedDevice) DeviceStats() DeviceStats { return d.stats.DeviceStats() }
