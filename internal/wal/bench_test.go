package wal

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkFlushWrapVectored measures one wrap-around flush (the worst
// case for submission count: two ring regions, one WriteVec) and
// reports the measured per-flush write-submission count as
// writes/flush.
func BenchmarkFlushWrapVectored(b *testing.B) {
	mem := NewMem()
	l := newStoppedLog(b, mem, Options{Kind: Serial, SyncOnFlush: true})

	ringSize := uint64(l.opts.BufferSize)
	startAt := ringSize - 64 // every iteration's region wraps here
	payload := bytes.Repeat([]byte("b"), 4096)
	rec := make([]byte, EncodedSize(len(payload)))
	if _, err := Encode(&Record{Type: RecUpdate, TxnID: 1, Payload: payload}, rec); err != nil {
		b.Fatal(err)
	}
	if _, err := mem.WriteAt(make([]byte, startAt), 0); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewind the log to the same wrapped region each iteration so
		// the flush shape is identical and the device never grows.
		setNext(l, startAt)
		l.fr.filled.Store(startAt)
		l.flushed.Store(startAt)
		if _, err := l.Insert(rec); err != nil {
			b.Fatal(err)
		}
		if err := l.flushOnce(causeDemand); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := l.StatsSnapshot()
	b.ReportMetric(float64(mem.DeviceStats().Writes)/float64(b.N), "writes/flush")
	b.ReportMetric(float64(st.FlushSyncs)/float64(b.N), "syncs/flush")
}

// benchSegSync measures Sync over a segmented device with liveSegs
// segments of which exactly one is dirtied per iteration, reporting
// how many files were actually synced per Sync. The dirty-only path
// syncs 1; syncing every live segment costs liveSegs.
func benchSegSync(b *testing.B, liveSegs int, dirtyAll bool) {
	dir, err := os.MkdirTemp("", "hydra-bench-seg")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	const segSize = 1 << 16
	d, err := OpenSegmented(dir, segSize)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt(make([]byte, segSize*int64(liveSegs)), 0); err != nil {
		b.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		b.Fatal(err)
	}
	pre := d.DeviceStats()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirtyAll {
			// The all-segments sync cost: touch every live segment
			// so Sync must sync each one.
			for s := 0; s < liveSegs; s++ {
				if _, err := d.WriteAt([]byte{1}, int64(s)*segSize); err != nil {
					b.Fatal(err)
				}
			}
		} else if _, err := d.WriteAt([]byte{1}, 0); err != nil {
			b.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := d.DeviceStats()
	b.ReportMetric(float64(st.SegSyncs-pre.SegSyncs)/float64(b.N), "segsyncs/sync")
	b.ReportMetric(float64(st.SegSyncSkips-pre.SegSyncSkips)/float64(b.N), "skipped/sync")
}

// BenchmarkSegmentedSyncDirtyOnly: 64 live segments, one dirtied per
// round — Sync fsyncs exactly the dirty one.
func BenchmarkSegmentedSyncDirtyOnly(b *testing.B) { benchSegSync(b, 64, false) }

// BenchmarkSegmentedSyncAllDirty: all 64 segments dirtied per round —
// the O(live segments) fsync cost the dirty set avoids.
func BenchmarkSegmentedSyncAllDirty(b *testing.B) { benchSegSync(b, 64, true) }

// BenchmarkSegmentedWriteVec measures a flush-shaped vectored write
// (two buffers, crossing one segment boundary) against issuing the
// same bytes as two WriteAt calls.
func BenchmarkSegmentedWriteVec(b *testing.B) {
	for _, vectored := range []bool{true, false} {
		name := "vec"
		if !vectored {
			name = "seq"
		}
		b.Run(name, func(b *testing.B) {
			dir, err := os.MkdirTemp("", "hydra-bench-vec")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			d, err := OpenSegmented(dir, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b1 := bytes.Repeat([]byte("x"), 8192)
			b2 := bytes.Repeat([]byte("y"), 8192)
			off := int64(1<<20) - 4096 // straddles the boundary
			offs := []int64{off, off + int64(len(b1))}
			b.SetBytes(int64(len(b1) + len(b2)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vectored {
					if _, err := d.WriteVec(offs, [][]byte{b1, b2}); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := d.WriteAt(b1, offs[0]); err != nil {
						b.Fatal(err)
					}
					if _, err := d.WriteAt(b2, offs[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkLogAppendSegmented drives the full insert→flush→sync
// pipeline over 4 MiB segments for each buffer kind, the
// end-to-end number behind the EXPERIMENTS entry.
func BenchmarkLogAppendSegmented(b *testing.B) {
	for _, kind := range BufferKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "hydra-bench-log")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			d, err := OpenSegmented(dir, 1<<22)
			if err != nil {
				b.Fatal(err)
			}
			l, err := New(d, Options{Kind: kind, BufferSize: 1 << 22, SyncOnFlush: true})
			if err != nil {
				b.Fatal(err)
			}
			payload := bytes.Repeat([]byte("p"), 128)
			b.SetBytes(int64(EncodedSize(len(payload))))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.AppendFields(RecUpdate, 1, NilLSN, 0, NilLSN, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			st := l.StatsSnapshot()
			if st.Flushes > 0 {
				b.ReportMetric(float64(st.FlushWrites)/float64(st.Flushes), "writes/flush")
				b.ReportMetric(float64(st.SegSyncs)/float64(st.Flushes), "segsyncs/flush")
			}
			d.Close()
		})
	}
}

// BenchmarkCommitFileDevice is the durable-commit path on real files,
// over both layouts of the one device and three row sizes: each
// committer runs begin, update, commit, wait for durability, end — the
// records and the one wait of an autocommitted SET. syncs/commit is the
// figure the demand-driven flusher is judged on (1.00 with one
// committer, below it when two share syncs); µs/commit is mostly the
// device's sync, and the row size sets how often a commit enters a
// block of the file for the first time (a 4 KiB row: every time), which
// is what the pre-write takes out of it. It fails when one committer
// pays more than one sync per commit, when the device extends a file
// more often than once per preallocation step, when a flush costs more
// than one write per segment it touches, or when zeros are written more
// than once per stride — each would put metadata, or a second
// submission, back into the commit path.
func BenchmarkCommitFileDevice(b *testing.B) {
	for _, sh := range []devShape{{"wal.log", 0}, {"4MiB-segments", 4 << 20}} {
		for _, row := range []int{256, 2 << 10, 4 << 10} {
			for _, committers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%dB/%dcommitters", sh.name, row, committers), func(b *testing.B) {
					dev := sh.open(b, b.TempDir())
					defer dev.Close()
					l, err := New(dev, Options{Kind: Consolidated, SyncOnFlush: true})
					if err != nil {
						b.Fatal(err)
					}
					defer l.Close()
					payload := bytes.Repeat([]byte("u"), row)
					var next atomic.Int64
					var wg sync.WaitGroup
					b.ResetTimer()
					for c := 0; c < committers; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							for next.Add(1) <= int64(b.N) {
								if err := commitTxn(l, uint64(c+1), payload); err != nil {
									b.Error(err)
									return
								}
							}
						}(c)
					}
					wg.Wait()
					b.StopTimer()
					st := l.StatsSnapshot()
					syncs := float64(st.FlushSyncs) / float64(b.N)
					b.ReportMetric(syncs, "syncs/commit")
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/commit")
					b.ReportMetric(float64(st.Extends), "dev_extends")
					b.ReportMetric(float64(st.PrewriteBytes), "dev_prewrite_bytes")
					// One stray sync is the tick finding the last end record
					// before the snapshot; more is the policy failing.
					if committers == 1 && st.FlushSyncs > uint64(b.N+1+b.N/200) {
						b.Fatalf("%d syncs for %d commits by one committer, want one each", st.FlushSyncs, b.N)
					}
					end, _ := dev.Size()
					if int64(st.Extends) > (end+sh.step()-1)/sh.step() {
						b.Fatalf("%d dev_extends for %d bytes of log in %d-byte steps: a file was extended inside a preallocated step", st.Extends, end, sh.step())
					}
					segs := uint64(sh.segments(end))
					if st.Writes > st.FlushWrites+segs-1 {
						b.Fatalf("%d dev_writes for %d flushes over %d segments, want one per flush and segment touched", st.Writes, st.FlushWrites, segs)
					}
					if st.PrewriteBytes > uint64(end)+segs*prewriteStride {
						b.Fatalf("%d dev_prewrite_bytes for %d bytes of log in %d segments: zeros written more than once per %d-byte stride", st.PrewriteBytes, end, segs, prewriteStride)
					}
				})
			}
		}
	}
}
