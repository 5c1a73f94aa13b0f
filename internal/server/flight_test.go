package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/wal"
)

// gateDevice wraps a MemDevice with a switchable stall: while gated,
// WriteAt blocks until released. It simulates a log device that stops
// completing IO — the flusher wedges, the durable LSN stops advancing,
// and every SyncCommit transaction parks in WaitFlushed.
type gateDevice struct {
	*wal.MemDevice
	gated   atomic.Bool
	release chan struct{}
}

func newGateDevice() *gateDevice {
	return &gateDevice{MemDevice: wal.NewMem(), release: make(chan struct{})}
}

func (d *gateDevice) WriteAt(b []byte, off int64) (int, error) {
	if d.gated.Load() {
		<-d.release
	}
	return d.MemDevice.WriteAt(b, off)
}

// WriteVec gates the vectored flush path too — the flusher prefers it
// when the device supports batched submission.
func (d *gateDevice) WriteVec(offs []int64, bufs [][]byte) (int, error) {
	if d.gated.Load() {
		<-d.release
	}
	return d.MemDevice.WriteVec(offs, bufs)
}

// TestFlightRecorderWALStall wedges the log device under a committing
// transaction and asserts the watchdog captures a wal_stall incident
// with the commit-pipeline evidence in the bundle.
func TestFlightRecorderWALStall(t *testing.T) {
	dev := newGateDevice()
	cfg := core.Scalable()
	e, err := core.OpenWith(cfg, buffer.NewMemStore(), dev)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("stall")
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: one committed transaction proves the pipeline works.
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	fr := NewFlightRecorder(e, FlightOptions{
		Poll:     2 * time.Millisecond,
		Confirm:  3,
		Cooldown: time.Minute,
	})
	fr.Start()

	// Gate the device, then commit in the background: the commit
	// record's flush never completes, so the committer parks.
	dev.gated.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 2, []byte("w")) })
	}()

	deadline := time.After(5 * time.Second)
	for fr.Count(StallWAL) == 0 {
		select {
		case <-deadline:
			t.Fatal("no wal_stall incident within deadline")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Release the device; the stalled commit must now complete.
	dev.gated.Store(false)
	close(dev.release)
	if err := <-done; err != nil {
		t.Fatalf("stalled commit failed after release: %v", err)
	}
	fr.Stop()

	incs := fr.Snapshot()
	if len(incs) == 0 {
		t.Fatal("no incidents retained")
	}
	inc := incs[0]
	if inc.Kind != "wal_stall" {
		t.Fatalf("incident kind = %q, want wal_stall", inc.Kind)
	}
	if inc.CommitWaiters == 0 {
		t.Error("bundle did not capture the parked commit waiter")
	}
	if inc.Detail == "" || !strings.Contains(inc.Detail, "durable LSN stuck") {
		t.Errorf("unexpected detail %q", inc.Detail)
	}
	if inc.Seq == 0 {
		t.Error("incident missing sequence number")
	}

	// The cooldown must have suppressed repeats: a multi-second stall
	// at a 2ms poll would otherwise record hundreds.
	if got := fr.Count(StallWAL); got != 1 {
		t.Errorf("wal_stall count = %d, want 1 (cooldown)", got)
	}

	// /incidents serves the same bundle.
	mux := NewMetricsMux(e, fr)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var out struct {
		Incidents []Incident `json:"incidents"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/incidents")), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Incidents) == 0 || out.Incidents[0].Kind != "wal_stall" {
		t.Errorf("/incidents = %+v", out.Incidents)
	}

	// And /metrics counts it.
	body := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `hydra_incidents_total{kind="wal_stall"} 1`) {
		t.Error("/metrics missing incremented wal_stall counter")
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderLockWaiter parks one transaction behind another's
// row lock past a tiny horizon and asserts the lock_waiter_stuck
// incident fires with the waits-for evidence.
func TestFlightRecorderLockWaiter(t *testing.T) {
	cfg := core.Scalable()
	cfg.LockTimeout = 5 * time.Second // longer than the detection horizon
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("lw")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	fr := NewFlightRecorder(e, FlightOptions{
		Poll:              2 * time.Millisecond,
		Confirm:           3,
		Cooldown:          time.Minute,
		LockWaiterHorizon: 20 * time.Millisecond,
	})
	fr.Start()
	defer fr.Stop()

	holder := e.Begin()
	if _, err := holder.ReadForUpdate(tbl, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		waiter := e.Begin()
		if _, err := waiter.ReadForUpdate(tbl, 1); err == nil {
			waiter.Commit()
		} else {
			waiter.Abort()
		}
	}()

	deadline := time.After(5 * time.Second)
	for fr.Count(StallLockWaiter) == 0 {
		select {
		case <-deadline:
			t.Fatal("no lock_waiter_stuck incident within deadline")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	<-done

	incs := fr.Snapshot()
	found := false
	for _, inc := range incs {
		if inc.Kind == "lock_waiter_stuck" {
			found = true
			if inc.OldestLockWaitNs <= 0 || inc.LockWaiters == 0 {
				t.Errorf("bundle missing waiter evidence: %+v", inc)
			}
		}
	}
	if !found {
		t.Error("lock_waiter_stuck incident not retained")
	}
}

// TestFlightRecorderMVCCGCStall pins a snapshot past the age horizon
// while writers keep growing the version chains and asserts the
// watchdog captures a mvcc_gc_stalled incident with the pin-age and
// live-node evidence.
func TestFlightRecorderMVCCGCStall(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("gc")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	fr := NewFlightRecorder(e, FlightOptions{
		Poll:               2 * time.Millisecond,
		Confirm:            3,
		Cooldown:           time.Minute,
		SnapshotAgeHorizon: 10 * time.Millisecond,
	})
	fr.Start()
	defer fr.Stop()

	// The long snapshot: pinned and never released until the incident
	// fires. Writers keep the chains growing the whole time, so every
	// poll sees {old pin, growth} together.
	snap := e.Begin(core.Intent{ReadOnly: true})
	stopWriters := make(chan struct{})
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for i := 0; ; i++ {
			select {
			case <-stopWriters:
				return
			default:
			}
			e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 1, []byte{byte(i)}) })
		}
	}()

	deadline := time.After(5 * time.Second)
	for fr.Count(StallMVCCGC) == 0 {
		select {
		case <-deadline:
			t.Fatal("no mvcc_gc_stalled incident within deadline")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stopWriters)
	<-writersDone
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, inc := range fr.Snapshot() {
		if inc.Kind == "mvcc_gc_stalled" {
			found = true
			if inc.OldestSnapshotAgeNs <= 0 || inc.ActiveSnapshots == 0 || inc.MvccLiveNodes <= 0 {
				t.Errorf("bundle missing MVCC evidence: %+v", inc)
			}
			if !strings.Contains(inc.Detail, "pins GC watermark") {
				t.Errorf("unexpected detail %q", inc.Detail)
			}
		}
	}
	if !found {
		t.Error("mvcc_gc_stalled incident not retained")
	}
}

// TestFlightRecorderCountsWhatItRetains: an incident is on the ring by
// the time it is counted, so a reader that sees Count(k) = n finds at
// least min(n, ring size) incidents of k in the Snapshot it takes next.
func TestFlightRecorderCountsWhatItRetains(t *testing.T) {
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fr := NewFlightRecorder(e, FlightOptions{Confirm: 1})
	const fires = 200
	done := make(chan struct{})
	go func() { // the watchdog's part: bump runs on one goroutine
		defer close(done)
		for i := 1; i <= fires; i++ {
			// An hour apart: every firing is past the last one's cooldown.
			fr.bump(StallLockWaiter, int64(i)*int64(time.Hour), func() string { return "forced" })
		}
	}()
	for n := uint64(0); n < fires; {
		n = fr.Count(StallLockWaiter)
		got := uint64(0)
		for _, inc := range fr.Snapshot() {
			if inc.Kind == StallLockWaiter.String() {
				got++
			}
		}
		if want := min(n, incidentRing); got < want {
			t.Fatalf("Count read %d, then Snapshot held %d incidents of the kind; want >= %d", n, got, want)
		}
	}
	<-done
}
