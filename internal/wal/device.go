package wal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"hydra/internal/invariant"
	"hydra/internal/obs"
)

// Device is the stable storage the log is flushed to. Offsets are
// LSNs: the log image is the concatenation of all records.
type Device interface {
	// WriteAt writes b at the given log offset.
	WriteAt(b []byte, off int64) (int, error)
	// WriteVec writes each bufs[i] at offs[i] and returns the total
	// bytes written: a whole flush group as one call, so the flush
	// daemon issues one submission per wakeup instead of one per ring
	// slice. The pairs must be sorted by offset and non-overlapping
	// (the flusher's wrap-around slices are contiguous, which lets an
	// implementation gather adjacent pairs into a single write), and
	// len(offs) must equal len(bufs).
	WriteVec(offs []int64, bufs [][]byte) (int, error)
	// ReadAt reads into b from the given log offset. Short reads at
	// end of log return io.EOF semantics via n < len(b).
	ReadAt(b []byte, off int64) (int, error)
	// Sync makes preceding writes durable.
	Sync() error
	// Size returns the current log length in bytes.
	Size() (int64, error)
	// SetEnd declares off the end of log and discards whatever the
	// device holds beyond it — a torn last record, or the never-written
	// tail of a preallocated file — so Size reports off, reads past it
	// come back short, and the region reads as zeros once the log grows
	// over it again. New calls it with the end it found by scanning,
	// before the first append.
	SetEnd(off int64) error
	// DeviceStats returns the device's cumulative submission counters.
	DeviceStats() DeviceStats
	// Close releases the device.
	Close() error
}

// DeviceStats are cumulative per-device submission counters — the
// syscall-shaped events behind a flush. They are the ground truth for
// the "1 vectored submission per touched segment, sync only dirty"
// claim: the Log surfaces them through StatsSnapshot so /metrics and
// hydra-top can show submissions per flush live.
type DeviceStats struct {
	Writes       uint64 `json:"dev_writes" metric:"name=hydra_wal_dev_writes_total"`                 // physical write submissions (one per contiguous run / segment file)
	VecWrites    uint64 `json:"dev_vec_writes" metric:"name=hydra_wal_dev_vec_writes_total"`         // WriteVec calls (batched submissions)
	Syncs        uint64 `json:"dev_syncs" metric:"name=hydra_wal_dev_syncs_total"`                   // Sync calls
	SegSyncs     uint64 `json:"dev_seg_syncs" metric:"name=hydra_wal_dev_seg_syncs_total"`           // segment files actually synced
	SegSyncSkips uint64 `json:"dev_seg_sync_skips" metric:"name=hydra_wal_dev_seg_sync_skips_total"` // live segments skipped at Sync because clean
	Extends      uint64 `json:"dev_extends" metric:"name=hydra_wal_dev_extends_total"`               // preallocation steps (FileDevice: one per logChunk of a segment)
	// Zeros written ahead of the log so later flushes overwrite (see
	// prewriteStride); such a write is not counted in Writes.
	PrewriteBytes uint64 `json:"dev_prewrite_bytes" metric:"name=hydra_wal_dev_prewrite_bytes_total"`
}

// logChunk is the step in which FileDevice preallocates a segment file
// ahead of the write frontier. Within a step a flush never changes the
// file's size. Its block map is another matter: fallocate hands out
// unwritten extents (and the sparse fallback holes), the first write
// into a block converts or allocates it, and the fdatasync after that
// write is a file-system journal commit, about twice the cost of one
// that only writes data out. prewriteStride is what keeps the commit
// path off such blocks.
const logChunk = 16 << 20

// prewriteStride is how far ahead of the log FileDevice keeps a segment
// file's blocks written. A flush that ends beyond what was written
// before also writes zeros from its end up to the next multiple of the
// stride, and the one fdatasync after it commits the block-map change
// for the whole stride; every flush until the log reaches that boundary
// overwrites written blocks, and its fdatasync is a data write-out and
// nothing else. The zeros are what a reader of preallocated space sees
// anyway, so the end-of-log rule (a zero length word) is untouched. The
// stride divides logChunk. Filling a whole logChunk in reserve instead
// buys the same syncs for tens of milliseconds at every start.
const prewriteStride = 256 << 10

// zeros is the source of every pre-write.
var zeros [prewriteStride]byte

// unbounded is the size of OpenFile's one segment.
const unbounded = math.MaxInt64

// FileDevice is the file-backed Device: the log's bytes cut into
// segments of segSize, one file each, named by the log offset it
// starts at. A segment's file is created when the log first reaches it
// and preallocated in logChunk steps (space reserved, zeros written one
// prewriteStride ahead of the log), so the files are usually longer
// than the log: the logical end is tracked here, found by New's scan
// after a crash, and a clean Close trims the files back to it. Once a
// checkpoint has moved past a segment, TruncateBefore deletes its file
// — the log recycling every production WAL needs. OpenFile's flat
// wal.log is the same device with one segment that never ends: its
// file offsets are LSNs and there is never a whole segment to recycle.
type FileDevice struct {
	dir     string
	flat    string // OpenFile: the one segment's file name; see segName
	segSize int64

	// mu makes segment-map updates atomic with the file operations
	// that realize them (create, cut and delete of segment files). It
	// is held across the IO on purpose: a gathered write's staging
	// buffer IS the IO buffer. Nothing queues behind it on the commit
	// path — the flush daemon is the only writer; restart and backup
	// are the readers.
	//
	//hydra:vet:coarse -- device-level lock: segment rotation must mutate the map and the file set atomically, and the staging buffer doubles as the IO buffer
	mu    invariant.Mutex[invariant.WALDevice]
	segs  map[int64]*segment // start offset -> file
	dirty map[int64]struct{} // segments written since the last Sync
	// size is the logical end of log: what Size reports and ReadAt
	// clamps to. Until SetEnd or a write moves it, it is the end of the
	// last file found at open — an upper bound the Scanner's
	// zero-length-word rule refines.
	size int64
	base int64 // lowest retained offset (truncation point)

	vecBuf []byte // WriteVec's staging buffer, reused across calls

	stats struct { // striped: scraped while the flusher counts
		writes, vecWrites, syncs obs.Counter
		segSyncs, segSyncSkips   obs.Counter
		extends, prewriteBytes   obs.Counter
	}
}

type segment struct {
	f *os.File
	// alloc is the file's physical size; a write below it leaves the
	// size alone.
	alloc int64
	// written is the frontier below which the file's blocks have been
	// written, with data or with zeros, since they were allocated: a
	// write that ends at or below it changes no file metadata at all.
	// Nothing has been written above it, so the file reads as zeros
	// there. start+written is never below the logical end of log.
	written int64
}

// OpenFile opens a log device kept in the one file path, which the
// first write creates.
func OpenFile(path string) (*FileDevice, error) {
	return open(&FileDevice{dir: filepath.Dir(path), flat: filepath.Base(path), segSize: unbounded})
}

// OpenSegmented opens (creating if needed) a log device kept in dir as
// segment files of segSize bytes.
func OpenSegmented(dir string, segSize int64) (*FileDevice, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("wal: segment size must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	return open(&FileDevice{dir: dir, segSize: segSize})
}

// SegmentSize returns a segment size under which the segment files in
// dir open, for a reader that was not told the size the log was written
// with (hydra-recover): consecutive segments start one size apart, and
// a lone segment fits any size that divides its start.
func SegmentSize(dir string) (int64, error) {
	starts, err := (&FileDevice{dir: dir}).list()
	switch {
	case err != nil:
		return 0, err
	case len(starts) == 0:
		return 0, fmt.Errorf("wal: no log segments in %s", dir)
	case len(starts) > 1:
		return starts[1] - starts[0], nil
	case starts[0] > 0:
		return starts[0], nil
	}
	return unbounded, nil
}

// segName names the file of the segment that starts at start: the one
// place that knows the two layouts apart.
func (d *FileDevice) segName(start int64) string {
	if d.flat != "" {
		return d.flat
	}
	return fmt.Sprintf("seg-%020d.wal", start)
}

func (d *FileDevice) segPath(start int64) string { return filepath.Join(d.dir, d.segName(start)) }

func (d *FileDevice) segStart(off int64) int64 { return off - off%d.segSize }

// list returns the start offsets of the segment files in d.dir,
// ascending.
func (d *FileDevice) list() ([]int64, error) {
	entries, err := os.ReadDir(d.dir) // sorted by name, so by start
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	var starts []int64
	for _, ent := range entries {
		// A file is a segment when some start names it. A name without
		// a number leaves start 0: the flat file's.
		var start int64
		fmt.Sscanf(ent.Name(), "seg-%d.wal", &start)
		if start >= 0 && ent.Name() == d.segName(start) {
			starts = append(starts, start)
		}
	}
	return starts, nil
}

// open adopts the segment files already on disk.
func open(d *FileDevice) (*FileDevice, error) {
	d.segs = make(map[int64]*segment)
	d.dirty = make(map[int64]struct{})
	starts, err := d.list()
	if err != nil {
		return nil, err
	}
	for _, start := range starts {
		if err := d.adopt(start); err != nil {
			d.Close() // the segments adopted so far
			return nil, fmt.Errorf("wal: open log: %w", err)
		}
	}
	if len(starts) > 0 {
		d.base = starts[0]
	}
	return d, nil
}

// adopt opens the existing file of the segment that starts at start,
// the highest so far. The start must be a multiple of the segment size
// and the file no longer than it: a log written with another size would
// be mis-addressed at every offset.
func (d *FileDevice) adopt(start int64) error {
	f, err := os.OpenFile(d.segPath(start), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err == nil && (start%d.segSize != 0 || st.Size() > d.segSize) {
		err = fmt.Errorf("%s starts at %d and holds %d bytes: not a segment of %d bytes (was the log written with another segment size?)",
			d.segPath(start), start, st.Size(), d.segSize)
	}
	if err != nil {
		f.Close()
		return err
	}
	// What the file holds was written, by a log that was closed or by
	// one that crashed; SetEnd cuts off what only looks that way.
	d.segs[start] = &segment{f: f, alloc: st.Size(), written: st.Size()}
	d.size = start + st.Size()
	return nil
}

// segFor returns the segment that starts at start, creating its file
// when the log first reaches it. The first preallocation step, the
// file's size and its directory entry go to disk here, so the flush
// path's data-only syncs suffice from then on. Caller holds d.mu.
func (d *FileDevice) segFor(start int64) (*segment, error) {
	if s, ok := d.segs[start]; ok {
		return s, nil
	}
	f, err := os.OpenFile(d.segPath(start), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create log segment: %w", err)
	}
	s := &segment{f: f}
	if err = d.reserve(s, 1); err == nil {
		if err = datasync(f); err == nil {
			err = syncDir(d.dir)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(d.segPath(start))
		return nil, fmt.Errorf("wal: create log segment at %d: %w", start, err)
	}
	d.segs[start] = s
	return s, nil
}

// syncDir makes the directory's entries durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// reserve makes sure s's file covers its first end bytes, preallocating
// up to the next logChunk boundary — or the end of the segment — when
// it does not.
func (d *FileDevice) reserve(s *segment, end int64) error {
	if end <= s.alloc {
		return nil
	}
	to := min((end+logChunk-1)/logChunk*logChunk, d.segSize)
	if err := preallocate(s.f, s.alloc, to-s.alloc); err != nil {
		return fmt.Errorf("wal: preallocate log segment to %d: %w", to, err)
	}
	s.alloc = to
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

// WriteAt implements Device.
func (d *FileDevice) WriteAt(b []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeVec([]int64{off}, [][]byte{b})
}

// WriteVec implements Device: the vector is split at segment
// boundaries, adjacent pieces that land in one segment are gathered
// into a staging buffer, and each such run goes down as one pwrite —
// the portable emulation of pwritev, shaped so that a pwritev or
// io_uring backend can slot in behind the same call. A run of a single
// piece is written in place, with no copy.
func (d *FileDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if len(offs) != len(bufs) {
		return 0, fmt.Errorf("wal: WriteVec: %d offsets for %d buffers", len(offs), len(bufs))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.vecWrites.Inc()
	return d.writeVec(offs, bufs)
}

func (d *FileDevice) writeVec(offs []int64, bufs [][]byte) (int, error) {
	var (
		written int
		run     []byte // the pending run; aliases the caller's buffer until a second piece joins it
		runOff  int64
		staged  bool // run lives in d.vecBuf
	)
	for i, b := range bufs {
		off := offs[i]
		for len(b) > 0 {
			piece := b[:min(int64(len(b)), d.segStart(off)+d.segSize-off)]
			b = b[len(piece):]
			// A piece extends the run when it is adjacent to it and in
			// the same segment, that is, not at a segment's start.
			if len(run) > 0 && (off != runOff+int64(len(run)) || off == d.segStart(off)) {
				n, err := d.writeRun(run, runOff)
				written += n
				if err != nil {
					return written, err
				}
				run, staged = nil, false
			}
			switch {
			case len(run) == 0:
				run, runOff = piece, off
			case !staged:
				d.vecBuf = append(d.vecBuf[:0], run...)
				staged = true
				fallthrough
			default:
				d.vecBuf = append(d.vecBuf, piece...)
				run = d.vecBuf
			}
			off += int64(len(piece))
		}
	}
	if len(run) == 0 {
		return written, nil
	}
	n, err := d.writeRun(run, runOff)
	return written + n, err
}

// prewrite moves s's written frontier to the first stride boundary at
// or beyond end, where a write is about to end, by writing zeros from
// end up to it. The boundary is clamped to the space reserve made, which
// ends on a stride boundary or with the segment.
func (d *FileDevice) prewrite(s *segment, end int64) error {
	if end <= s.written {
		return nil
	}
	to := min((end+prewriteStride-1)/prewriteStride*prewriteStride, s.alloc)
	n, err := s.f.WriteAt(zeros[:to-end], end)
	d.stats.prewriteBytes.Add(uint64(n))
	if err != nil {
		return fmt.Errorf("wal: pre-write log segment to %d: %w", to, err)
	}
	s.written = to
	return nil
}

// writeRun writes b, which lies within one segment, at log offset off.
// The zeros of a pre-write go down first and become durable with b, in
// the sync that follows: in whichever order a crash keeps the two, b
// ends in zeros.
func (d *FileDevice) writeRun(b []byte, off int64) (int, error) {
	start := d.segStart(off)
	s, err := d.segFor(start)
	if err != nil {
		return 0, err
	}
	end := off - start + int64(len(b))
	if err := d.reserve(s, end); err != nil {
		return 0, err
	}
	if err := d.prewrite(s, end); err != nil {
		return 0, err
	}
	d.stats.writes.Inc()
	n, err := s.f.WriteAt(b, off-start)
	d.dirty[start] = struct{}{}
	d.size = max(d.size, off+int64(n))
	if err != nil {
		return n, fmt.Errorf("wal: log write at %d: %w", off, err)
	}
	return n, nil
}

// ReadAt implements Device, splitting reads at segment boundaries and
// stopping at the logical end of log, not at the end of a preallocated
// file. Reading below the truncation point is an error.
func (d *FileDevice) ReadAt(b []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	read := 0
	for read < len(b) && off < d.size {
		start := d.segStart(off)
		piece := b[read:]
		piece = piece[:min(int64(len(piece)), min(start+d.segSize, d.size)-off)]
		n := 0
		if s, ok := d.segs[start]; ok {
			var err error
			if n, err = s.f.ReadAt(piece, off-start); err != nil && err != io.EOF {
				return read + n, err
			}
		} else if start < d.base {
			return read, fmt.Errorf("wal: read at %d below truncation point %d", off, d.base)
		}
		// What the file does not hold of a piece inside the log was
		// never written: a hole, which reads as zeros.
		clear(piece[n:])
		read += len(piece)
		off += int64(len(piece))
	}
	if read < len(b) {
		return read, io.EOF
	}
	return read, nil
}

// Sync implements Device: only segments written since the last Sync
// are synced, with fdatasync — a file's size changes in reserve, never
// in a write, and its block map only in the one write per
// prewriteStride that carried a pre-write; the sync after that one is
// a journal commit, every other a data write-out. A segment whose sync
// fails stays dirty, so a retry covers it again.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.syncs.Inc()
	if clean := len(d.segs) - len(d.dirty); clean > 0 {
		d.stats.segSyncSkips.Add(uint64(clean))
	}
	for start := range d.dirty {
		if err := datasync(d.segs[start].f); err != nil {
			return err
		}
		delete(d.dirty, start)
		d.stats.segSyncs.Inc()
	}
	return nil
}

// Size implements Device: the logical end of log.
func (d *FileDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size, nil
}

// SetEnd implements Device: the segment holding off is cut there and
// every later one deleted. The next write preallocates afresh, so the
// dropped bytes read back as zeros.
func (d *FileDevice) SetEnd(off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < d.base || off > d.size {
		return fmt.Errorf("wal: set end %d outside log [%d, %d]", off, d.base, d.size)
	}
	for start, s := range d.segs {
		switch keep := off - start; {
		case keep <= 0:
			if err := d.drop(start); err != nil {
				return err
			}
		case keep < s.alloc:
			if err := s.f.Truncate(keep); err != nil {
				return fmt.Errorf("wal: cut log at %d: %w", off, err)
			}
			s.alloc = keep
			s.written = min(s.written, keep)
		}
	}
	d.size = off
	return nil
}

// drop closes and deletes the segment file that starts at start. The
// segment leaves the live map first: after a failed close or remove its
// file is closed or in an unknown state, and retaining it would surface
// "file already closed" on every later read or sync. Caller holds d.mu.
func (d *FileDevice) drop(start int64) error {
	s := d.segs[start]
	delete(d.segs, start)
	delete(d.dirty, start)
	if err := s.f.Close(); err != nil {
		return err
	}
	return os.Remove(d.segPath(start))
}

// TruncateBefore deletes every segment that lies entirely below lsn
// and returns how many that was. The caller guarantees no record at or
// above its recovery horizon lives below lsn (see core's
// truncation-point computation).
func (d *FileDevice) TruncateBefore(lsn LSN) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	removed := 0
	for start := range d.segs {
		if int64(lsn)-start >= d.segSize {
			if err := d.drop(start); err != nil {
				return removed, err
			}
			removed++
		}
	}
	d.base = max(d.base, d.segStart(int64(lsn)))
	return removed, nil
}

// Bounded reports whether the log is cut into segments that
// TruncateBefore can give back.
func (d *FileDevice) Bounded() bool { return d.segSize < unbounded }

// Base returns the lowest retained log offset.
func (d *FileDevice) Base() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base
}

// Segments returns the number of live segment files.
func (d *FileDevice) Segments() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.segs)
}

// Close implements Device, trimming the preallocated tails first so a
// cleanly closed log is exactly its records.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	for start, s := range d.segs {
		if keep := max(d.size-start, 0); keep < s.alloc {
			err = errors.Join(err, s.f.Truncate(keep))
		}
		err = errors.Join(err, s.f.Close())
	}
	clear(d.segs)
	clear(d.dirty)
	return err
}

// DeviceStats implements Device.
func (d *FileDevice) DeviceStats() DeviceStats {
	return DeviceStats{
		Writes:        d.stats.writes.Load(),
		VecWrites:     d.stats.vecWrites.Load(),
		Syncs:         d.stats.syncs.Load(),
		SegSyncs:      d.stats.segSyncs.Load(),
		SegSyncSkips:  d.stats.segSyncSkips.Load(),
		Extends:       d.stats.extends.Load(),
		PrewriteBytes: d.stats.prewriteBytes.Load(),
	}
}

// MemDevice is an in-memory Device for tests and for CPU-bound
// experiments that must exclude disk latency. An optional per-sync
// artificial latency models a disk for group-commit experiments.
type MemDevice struct {
	mu      sync.Mutex
	data    []byte
	stats   DeviceStats // Writes: WriteAt calls + one per WriteVec, whatever its length
	SyncFn  func()      // optional hook invoked (unlocked) on every Sync
	failAt  int64       // if >0, writes past this offset fail (fault injection)
	failErr error
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
	d.stats.Writes++
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

// WriteVec implements Device: the whole vector lands in one
// submission (memory has no seek cost, so no gathering is needed —
// the counter is what matters for tests asserting batch shape).
func (d *MemDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if len(offs) != len(bufs) {
		return 0, fmt.Errorf("wal: WriteVec: %d offsets for %d buffers", len(offs), len(bufs))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.VecWrites++
	d.stats.Writes++
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
	d.stats.Syncs++
	fn := d.SyncFn
	d.mu.Unlock()
	if fn != nil {
		fn()
	}
	return nil
}

// DeviceStats implements Device; tests assert group-commit batching
// and flush batch shape on it.
func (d *MemDevice) DeviceStats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Size implements Device.
func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.data)), nil
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// SetEnd implements Device. Tests cut the device with it to simulate a
// crash that lost the tail (a torn write when off lands mid-record).
func (d *MemDevice) SetEnd(off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < int64(len(d.data)) {
		d.data = d.data[:off]
	}
	return nil
}
