// HTTP observability surface: a stdlib-only listener exposing the
// engine's counters and contention profiles while a workload runs.
//
//	GET /metrics    Prometheus text exposition (counters + histograms)
//	GET /stats      the same snapshot as JSON (hydra-top's feed)
//	GET /trace      retained transaction events as JSON;
//	                ?enable=on|off toggles recording,
//	                ?txn=<id> filters to one transaction,
//	                ?max=<n> caps the response (default 4096 events)
//	GET /slow       the worst-K slow-transaction reservoir with phase
//	                breakdowns and captured traces
//	GET /incidents  the stall flight recorder's diagnostic bundles
//
// The handlers live in this package (not internal/obs) deliberately:
// obs must stay import-free of the engine so every subsystem can
// depend on it, while the snapshot here needs *core.Engine to reach
// the per-engine counters. Scraping is read-only and touches only
// atomic loads, so it can run at any frequency against a loaded
// server.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/hist"
	"hydra/internal/obs"
)

// HistJSON is the wire form of one latency distribution.
type HistJSON struct {
	Count   uint64 `json:"count"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P90Ns   int64  `json:"p90_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	Summary string `json:"summary"`
}

func histJSON(h hist.H) HistJSON {
	return HistJSON{
		Count:   h.Count(),
		MeanNs:  int64(h.Mean()),
		P50Ns:   int64(h.Quantile(0.50)),
		P90Ns:   int64(h.Quantile(0.90)),
		P99Ns:   int64(h.Quantile(0.99)),
		MaxNs:   int64(h.Max()),
		Summary: h.String(),
	}
}

// TierJSON is one latch tier's acquisition profile.
type TierJSON struct {
	Tier    string   `json:"tier"`
	Ops     uint64   `json:"ops"`
	Acquire HistJSON `json:"acquire"`
}

// StatsJSON is the full snapshot served at /stats and by STATS FULL.
type StatsJSON struct {
	UptimeSec    float64         `json:"uptime_sec"`
	Commits      uint64          `json:"commits"`
	Aborts       uint64          `json:"aborts"`
	Lock         lockStatsJSON   `json:"lock"`
	LockWait     HistJSON        `json:"lock_wait"`
	Log          logStatsJSON    `json:"log"`
	Buffer       bufStatsJSON    `json:"buffer"`
	Mvcc         mvccStatsJSON   `json:"mvcc"`
	Dora         doraStatsJSON   `json:"dora"`
	Latches      []TierJSON      `json:"latches"`
	Phases       []PhaseCellJSON `json:"phases"`
	Slow         SlowJSON        `json:"slow"`
	Incidents    int             `json:"incidents"`
	TraceEnabled bool            `json:"trace_enabled"`
	TraceEvents  int             `json:"trace_events"`
}

// PhaseCellJSON is one (path, outcome) cell of the transaction phase
// profile: the total wall-time distribution plus each phase's
// distribution over the transactions where that phase was non-zero.
type PhaseCellJSON struct {
	Path    string              `json:"path"`
	Outcome string              `json:"outcome"`
	Count   uint64              `json:"count"`
	Total   HistJSON            `json:"total"`
	Phase   map[string]HistJSON `json:"phase"`
}

// phaseCells collects the non-empty profile cells.
func phaseCells() []PhaseCellJSON {
	out := make([]PhaseCellJSON, 0, int(obs.NumPaths)*int(obs.NumOutcomes))
	for p := obs.TxnPath(0); p < obs.NumPaths; p++ {
		for oc := obs.TxnOutcome(0); oc < obs.NumOutcomes; oc++ {
			s := obs.TxnPhases.Snapshot(p, oc)
			if s.Count == 0 {
				continue
			}
			cell := PhaseCellJSON{
				Path:    p.String(),
				Outcome: oc.String(),
				Count:   s.Count,
				Total:   histJSON(s.Total),
				Phase:   make(map[string]HistJSON, int(obs.NumPhases)),
			}
			for i := range s.Phase {
				if s.Phase[i].Count() == 0 {
					continue
				}
				cell.Phase[obs.Phase(i).String()] = histJSON(s.Phase[i])
			}
			out = append(out, cell)
		}
	}
	return out
}

// SlowTxnJSON is one retained slow transaction on the wire.
type SlowTxnJSON struct {
	Txn     uint64           `json:"txn"`
	Path    string           `json:"path"`
	Outcome string           `json:"outcome"`
	StartNs int64            `json:"start_ns"`
	TotalNs int64            `json:"total_ns"`
	Phase   map[string]int64 `json:"phase_ns"`
	Trace   []TraceEventJSON `json:"trace,omitempty"`
}

// TraceEventJSON is one tracer event on the wire (shared by /trace,
// /slow and incident bundles).
type TraceEventJSON struct {
	TSNs int64  `json:"ts_ns"`
	Txn  uint64 `json:"txn"`
	Kind string `json:"kind"`
	Arg  uint64 `json:"arg"`
	Arg2 uint64 `json:"arg2"`
}

func traceEventsJSON(events []obs.Event) []TraceEventJSON {
	out := make([]TraceEventJSON, 0, len(events))
	for _, ev := range events {
		out = append(out, TraceEventJSON{
			TSNs: ev.TS, Txn: ev.Txn, Kind: ev.Kind.String(),
			Arg: ev.Arg, Arg2: ev.Arg2,
		})
	}
	return out
}

func slowTxnsJSON(entries []obs.SlowTxn) []SlowTxnJSON {
	out := make([]SlowTxnJSON, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		j := SlowTxnJSON{
			Txn: e.Txn, Path: e.Path.String(), Outcome: e.Outcome.String(),
			StartNs: e.Start, TotalNs: e.Total,
			Phase: make(map[string]int64, int(obs.NumPhases)),
		}
		for p := range e.Phase {
			if e.Phase[p] != 0 {
				j.Phase[obs.Phase(p).String()] = e.Phase[p]
			}
		}
		if len(e.Trace) > 0 {
			j.Trace = traceEventsJSON(e.Trace)
		}
		out = append(out, j)
	}
	return out
}

// SlowJSON is the /slow response body.
type SlowJSON struct {
	Admitted uint64        `json:"admitted"`
	Rotated  uint64        `json:"rotated"`
	WindowNs int64         `json:"window_ns"`
	Entries  []SlowTxnJSON `json:"entries"`
}

func slowJSON() SlowJSON {
	s := obs.SlowTxns.Snapshot()
	return SlowJSON{
		Admitted: s.Admitted, Rotated: s.Rotated, WindowNs: s.WindowNs,
		Entries: slowTxnsJSON(s.Entries),
	}
}

// The subsystem Stats structs carry doc comments, not JSON tags;
// mirror them here so the wire names are stable snake_case regardless
// of how the internal structs evolve.
type lockStatsJSON struct {
	Acquires      uint64 `json:"acquires"`
	TableOps      uint64 `json:"table_ops"`
	Inherited     uint64 `json:"inherited"`
	Waits         uint64 `json:"waits"`
	Deadlocks     uint64 `json:"deadlocks"`
	Timeouts      uint64 `json:"timeouts"`
	Upgrades      uint64 `json:"upgrades"`
	ReleaseAll    uint64 `json:"release_all"`
	Escalations   uint64 `json:"escalations"`
	EscalatedAcqs uint64 `json:"escalated_acquires"`
	HeadAllocs    uint64 `json:"head_allocs"`
	HeadRecycles  uint64 `json:"head_recycles"`
	HeadRetires   uint64 `json:"head_retires"`
	HeatEvictions uint64 `json:"heat_evictions"`
	Bypasses      uint64 `json:"bypasses"`
}

// mvccStatsJSON mirrors core.MvccStats (version chains and the
// snapshot-read path).
type mvccStatsJSON struct {
	SnapshotBegins      uint64 `json:"snapshot_begins"`
	SnapshotReads       uint64 `json:"snapshot_reads"`
	ChainReads          uint64 `json:"chain_reads"`
	Installs            uint64 `json:"installs"`
	GCNodes             uint64 `json:"gc_nodes"`
	GCSweeps            uint64 `json:"gc_sweeps"`
	LiveNodes           int64  `json:"live_nodes"`
	SnapshotFloor       uint64 `json:"snapshot_floor"`
	ActiveSnapshots     int    `json:"active_snapshots"`
	OldestSnapshotAgeNs int64  `json:"oldest_snapshot_age_ns"`

	// Snapshot-isolation writer path.
	SIBegins         uint64 `json:"si_begins"`
	SICommits        uint64 `json:"si_commits"`
	SIConflictAborts uint64 `json:"si_conflict_aborts"`
	SnapshotsExpired uint64 `json:"snapshots_expired"`
}

type logStatsJSON struct {
	Inserts       uint64 `json:"inserts"`
	InsertedBytes uint64 `json:"inserted_bytes"`
	Flushes       uint64 `json:"flushes"`
	FlushedBytes  uint64 `json:"flushed_bytes"`
	MutexAcquires uint64 `json:"mutex_acquires"`
	GroupInserts  uint64 `json:"group_inserts"`
	FlushWrites   uint64 `json:"flush_writes"`
	FlushSyncs    uint64 `json:"flush_syncs"`
	// What started the flushes; the three sum to Flushes.
	FlushesDemand   uint64 `json:"flushes_demand"`
	FlushesPressure uint64 `json:"flushes_pressure"`
	FlushesTick     uint64 `json:"flushes_tick"`
	// Device-side submission counters (zero when the device does not
	// report stats): the per-flush syscall budget the batched flush
	// path is judged on.
	DevWrites       uint64 `json:"dev_writes"`
	DevVecWrites    uint64 `json:"dev_vec_writes"`
	DevSyncs        uint64 `json:"dev_syncs"`
	DevSegSyncs     uint64 `json:"dev_seg_syncs"`
	DevSegSyncSkips uint64 `json:"dev_seg_sync_skips"`
	DevExtends      uint64 `json:"dev_extends"`
}

type bufStatsJSON struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
}

// doraStatsJSON aggregates every live DORA engine in the process (the
// executors belong to the DORA layer above the core engine, so they
// register in a process-global registry rather than hanging off e).
type doraStatsJSON struct {
	ActionsExecuted   uint64   `json:"actions_executed"`
	RendezvousCrossed uint64   `json:"rendezvous_crossed"`
	LocalWaits        uint64   `json:"local_waits"`
	Timeouts          uint64   `json:"timeouts"`
	SinglePartition   uint64   `json:"single_partition_txns"`
	CrossPartition    uint64   `json:"cross_partition_txns"`
	Batches           uint64   `json:"batches"`
	BatchedJobs       uint64   `json:"batched_jobs"`
	QueueDepths       []int    `json:"queue_depths"`
	Service           HistJSON `json:"action_service"`
	Wait              HistJSON `json:"action_wait"`
}

// Snapshot collects one consistent-enough view of the engine's
// observability state. Counters are striped atomics, so the view is
// racy across counters but each value is a real point-in-time sum.
// fr may be nil (no flight recorder running).
func Snapshot(e *core.Engine, fr *FlightRecorder) StatsJSON {
	st := e.StatsSnapshot()
	tiers := obs.LatchSnapshot()
	out := StatsJSON{
		UptimeSec: time.Duration(obs.Now()).Seconds(),
		Commits:   st.Commits,
		Aborts:    st.Aborts,
		Lock: lockStatsJSON{
			Acquires: st.Lock.Acquires, TableOps: st.Lock.TableOps,
			Inherited: st.Lock.Inherited, Waits: st.Lock.Waits,
			Deadlocks: st.Lock.Deadlocks, Timeouts: st.Lock.Timeouts,
			Upgrades: st.Lock.Upgrades, ReleaseAll: st.Lock.ReleaseAll,
			Escalations: st.Lock.Escalations, EscalatedAcqs: st.Lock.EscalatedAcqs,
			HeadAllocs: st.Lock.HeadAllocs, HeadRecycles: st.Lock.HeadRecycles,
			HeadRetires: st.Lock.HeadRetires, HeatEvictions: st.Lock.HeatEvictions,
			Bypasses: st.Lock.Bypasses,
		},
		LockWait: histJSON(e.Locks().WaitHist()),
		Log: logStatsJSON{
			Inserts: st.Log.Inserts, InsertedBytes: st.Log.InsertedBytes,
			Flushes: st.Log.Flushes, FlushedBytes: st.Log.FlushedBytes,
			MutexAcquires: st.Log.MutexAcquires, GroupInserts: st.Log.GroupInserts,
			FlushWrites: st.Log.FlushWrites, FlushSyncs: st.Log.FlushSyncs,
			FlushesDemand: st.Log.FlushesDemand, FlushesPressure: st.Log.FlushesPressure,
			FlushesTick: st.Log.FlushesTick,
			DevWrites:   st.Log.Dev.Writes, DevVecWrites: st.Log.Dev.VecWrites,
			DevSyncs: st.Log.Dev.Syncs, DevSegSyncs: st.Log.Dev.SegSyncs,
			DevSegSyncSkips: st.Log.Dev.SegSyncSkips,
			DevExtends:      st.Log.Dev.Extends,
		},
		Buffer: bufStatsJSON{
			Hits: st.Buffer.Hits, Misses: st.Buffer.Misses,
			Evictions: st.Buffer.Evictions, Writebacks: st.Buffer.Writebacks,
		},
		Mvcc: mvccStatsJSON{
			SnapshotBegins: st.Mvcc.SnapshotBegins, SnapshotReads: st.Mvcc.SnapshotReads,
			ChainReads: st.Mvcc.ChainReads, Installs: st.Mvcc.Installs,
			GCNodes: st.Mvcc.GCNodes, GCSweeps: st.Mvcc.GCSweeps,
			LiveNodes: st.Mvcc.LiveNodes, SnapshotFloor: st.Mvcc.SnapshotFloor,
			ActiveSnapshots:     st.Mvcc.ActiveSnapshots,
			OldestSnapshotAgeNs: st.Mvcc.OldestSnapshotAgeNs,
			SIBegins:            st.Mvcc.SIBegins,
			SICommits:           st.Mvcc.SICommits,
			SIConflictAborts:    st.Mvcc.SIConflictAborts,
			SnapshotsExpired:    st.Mvcc.SnapshotsExpired,
		},
		Latches:      make([]TierJSON, 0, len(tiers)),
		Phases:       phaseCells(),
		Slow:         slowJSON(),
		TraceEnabled: obs.Trace.Enabled(),
		TraceEvents:  obs.Trace.Len(),
	}
	if fr != nil {
		out.Incidents = len(fr.Snapshot())
	}
	ds := dora.GlobalStats()
	out.Dora = doraStatsJSON{
		ActionsExecuted: ds.ActionsExecuted, RendezvousCrossed: ds.RendezvousCrossed,
		LocalWaits: ds.LocalWaits, Timeouts: ds.Timeouts,
		SinglePartition: ds.SinglePartition, CrossPartition: ds.CrossPartition,
		Batches: ds.Batches, BatchedJobs: ds.BatchedJobs,
		QueueDepths: ds.QueueDepths,
		Service:     histJSON(ds.Service), Wait: histJSON(ds.Wait),
	}
	for _, t := range tiers {
		out.Latches = append(out.Latches, TierJSON{
			Tier: t.Tier, Ops: t.Ops, Acquire: histJSON(t.Acquire),
		})
	}
	return out
}

// writePromCounter emits one counter in Prometheus text form.
func writePromCounter(w io.Writer, name string, v uint64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
}

// writePromHist emits one histogram in Prometheus text form. Bucket
// edges are the power-of-two nanosecond upper bounds converted to
// seconds; empty buckets are elided (cumulative counts stay monotone)
// and +Inf closes the series per the exposition format.
func writePromHist(w io.Writer, name, labels string, h *hist.H) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i := 0; i < hist.NumBuckets-1; i++ {
		c := h.Bucket(i)
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(hist.BucketUpper(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum().Seconds(), name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n",
			name, labels, h.Sum().Seconds(), name, labels, h.Count())
	}
}

// writeMetrics renders the whole exposition. Factored out of the
// handler so tests can render to a buffer. fr may be nil.
func writeMetrics(w io.Writer, e *core.Engine, fr *FlightRecorder) {
	st := e.StatsSnapshot()
	writePromCounter(w, "hydra_commits_total", st.Commits)
	writePromCounter(w, "hydra_aborts_total", st.Aborts)

	writePromCounter(w, "hydra_lock_acquires_total", st.Lock.Acquires)
	writePromCounter(w, "hydra_lock_table_ops_total", st.Lock.TableOps)
	writePromCounter(w, "hydra_lock_inherited_total", st.Lock.Inherited)
	writePromCounter(w, "hydra_lock_waits_total", st.Lock.Waits)
	writePromCounter(w, "hydra_lock_deadlocks_total", st.Lock.Deadlocks)
	writePromCounter(w, "hydra_lock_timeouts_total", st.Lock.Timeouts)
	writePromCounter(w, "hydra_lock_upgrades_total", st.Lock.Upgrades)
	writePromCounter(w, "hydra_lock_escalations_total", st.Lock.Escalations)
	writePromCounter(w, "hydra_lock_head_allocs_total", st.Lock.HeadAllocs)
	writePromCounter(w, "hydra_lock_head_recycles_total", st.Lock.HeadRecycles)
	writePromCounter(w, "hydra_lock_head_retires_total", st.Lock.HeadRetires)
	writePromCounter(w, "hydra_lock_heat_evictions_total", st.Lock.HeatEvictions)
	writePromCounter(w, "hydra_lock_bypasses_total", st.Lock.Bypasses)

	// MVCC snapshot-read path: hydra_lock_bypasses_total above climbs
	// with hydra_mvcc_snapshot_reads_total while hydra_lock_acquires
	// stays flat — the "zero lock traffic" signature.
	writePromCounter(w, "hydra_mvcc_snapshot_begins_total", st.Mvcc.SnapshotBegins)
	writePromCounter(w, "hydra_mvcc_snapshot_reads_total", st.Mvcc.SnapshotReads)
	writePromCounter(w, "hydra_mvcc_chain_reads_total", st.Mvcc.ChainReads)
	writePromCounter(w, "hydra_mvcc_installs_total", st.Mvcc.Installs)
	writePromCounter(w, "hydra_mvcc_gc_nodes_total", st.Mvcc.GCNodes)
	writePromCounter(w, "hydra_mvcc_gc_sweeps_total", st.Mvcc.GCSweeps)
	// SI writer path: si_commits / (si_commits + si_conflict_aborts)
	// is the first-committer-wins win rate; snapshots_expired counts
	// pins the MaxSnapshotAge remedy cut loose.
	writePromCounter(w, "hydra_mvcc_si_begins_total", st.Mvcc.SIBegins)
	writePromCounter(w, "hydra_mvcc_si_commits_total", st.Mvcc.SICommits)
	writePromCounter(w, "hydra_mvcc_si_conflict_aborts_total", st.Mvcc.SIConflictAborts)
	writePromCounter(w, "hydra_mvcc_snapshots_expired_total", st.Mvcc.SnapshotsExpired)
	fmt.Fprintf(w, "# TYPE hydra_mvcc_live_nodes gauge\nhydra_mvcc_live_nodes %d\n", st.Mvcc.LiveNodes)
	fmt.Fprintf(w, "# TYPE hydra_mvcc_active_snapshots gauge\nhydra_mvcc_active_snapshots %d\n", st.Mvcc.ActiveSnapshots)
	fmt.Fprintf(w, "# TYPE hydra_mvcc_oldest_snapshot_age_seconds gauge\nhydra_mvcc_oldest_snapshot_age_seconds %g\n",
		time.Duration(st.Mvcc.OldestSnapshotAgeNs).Seconds())

	writePromCounter(w, "hydra_log_inserts_total", st.Log.Inserts)
	writePromCounter(w, "hydra_log_inserted_bytes_total", st.Log.InsertedBytes)
	writePromCounter(w, "hydra_log_flushes_total", st.Log.Flushes)
	writePromCounter(w, "hydra_log_flushed_bytes_total", st.Log.FlushedBytes)
	writePromCounter(w, "hydra_log_mutex_acquires_total", st.Log.MutexAcquires)
	writePromCounter(w, "hydra_log_group_inserts_total", st.Log.GroupInserts)
	writePromCounter(w, "hydra_log_flush_writes_total", st.Log.FlushWrites)
	writePromCounter(w, "hydra_log_flush_syncs_total", st.Log.FlushSyncs)
	writePromCounter(w, "hydra_log_flushes_demand_total", st.Log.FlushesDemand)
	writePromCounter(w, "hydra_log_flushes_pressure_total", st.Log.FlushesPressure)
	writePromCounter(w, "hydra_log_flushes_tick_total", st.Log.FlushesTick)
	writePromCounter(w, "hydra_wal_dev_writes_total", st.Log.Dev.Writes)
	writePromCounter(w, "hydra_wal_dev_vec_writes_total", st.Log.Dev.VecWrites)
	writePromCounter(w, "hydra_wal_dev_syncs_total", st.Log.Dev.Syncs)
	writePromCounter(w, "hydra_wal_dev_seg_syncs_total", st.Log.Dev.SegSyncs)
	writePromCounter(w, "hydra_wal_dev_seg_sync_skips_total", st.Log.Dev.SegSyncSkips)
	writePromCounter(w, "hydra_wal_dev_extends_total", st.Log.Dev.Extends)

	writePromCounter(w, "hydra_buffer_hits_total", st.Buffer.Hits)
	writePromCounter(w, "hydra_buffer_misses_total", st.Buffer.Misses)
	writePromCounter(w, "hydra_buffer_evictions_total", st.Buffer.Evictions)
	writePromCounter(w, "hydra_buffer_writebacks_total", st.Buffer.Writebacks)

	ds := dora.GlobalStats()
	writePromCounter(w, "hydra_dora_actions_total", ds.ActionsExecuted)
	writePromCounter(w, "hydra_dora_rendezvous_total", ds.RendezvousCrossed)
	writePromCounter(w, "hydra_dora_local_waits_total", ds.LocalWaits)
	writePromCounter(w, "hydra_dora_timeouts_total", ds.Timeouts)
	writePromCounter(w, "hydra_dora_batches_total", ds.Batches)
	writePromCounter(w, "hydra_dora_batched_jobs_total", ds.BatchedJobs)
	fmt.Fprintf(w, "# TYPE hydra_dora_txns_total counter\n")
	fmt.Fprintf(w, "hydra_dora_txns_total{path=\"single\"} %d\n", ds.SinglePartition)
	fmt.Fprintf(w, "hydra_dora_txns_total{path=\"cross\"} %d\n", ds.CrossPartition)
	fmt.Fprintf(w, "# TYPE hydra_dora_queue_depth gauge\n")
	for i, depth := range ds.QueueDepths {
		fmt.Fprintf(w, "hydra_dora_queue_depth{executor=\"%d\"} %d\n", i, depth)
	}
	writePromHist(w, "hydra_dora_action_service_seconds", "", &ds.Service)
	writePromHist(w, "hydra_dora_action_wait_seconds", "", &ds.Wait)

	lw := e.Locks().WaitHist()
	writePromHist(w, "hydra_lock_wait_seconds", "", &lw)

	tiers := obs.LatchSnapshot()
	// One TYPE line then every tier's series, as the format requires
	// grouped families.
	fmt.Fprintf(w, "# TYPE hydra_latch_acquires_total counter\n")
	for _, t := range tiers {
		fmt.Fprintf(w, "hydra_latch_acquires_total{tier=%q} %d\n", t.Tier, t.Ops)
	}
	for i, t := range tiers {
		name := "hydra_latch_acquire_seconds"
		if i > 0 {
			// writePromHist emits a TYPE line; only the first may.
			var b strings.Builder
			writePromHist(&b, name, fmt.Sprintf("tier=%q", t.Tier), &tiers[i].Acquire)
			io.WriteString(w, strings.TrimPrefix(b.String(), "# TYPE "+name+" histogram\n"))
			continue
		}
		writePromHist(w, name, fmt.Sprintf("tier=%q", t.Tier), &tiers[i].Acquire)
	}

	// Transaction critical-path accounting: total wall time and the
	// per-phase distributions, labelled by execution path and outcome.
	// Families always emit a TYPE line; cells appear once they have
	// observations (the exposition stays bounded: at most
	// paths × outcomes × (1 + phases) series).
	writePhaseFamily(w, "hydra_txn_total_seconds", func(s *obs.PhaseSnapshot, emit func(labels string, h *hist.H)) {
		emit("", &s.Total)
	})
	writePhaseFamily(w, "hydra_txn_phase_seconds", func(s *obs.PhaseSnapshot, emit func(labels string, h *hist.H)) {
		for i := range s.Phase {
			if s.Phase[i].Count() == 0 {
				continue
			}
			emit(fmt.Sprintf("phase=%q,", obs.Phase(i).String()), &s.Phase[i])
		}
	})

	writePromCounter(w, "hydra_slow_admitted_total", obs.SlowTxns.Admitted())
	writePromCounter(w, "hydra_slow_rotations_total", obs.SlowTxns.Rotations())

	fmt.Fprintf(w, "# TYPE hydra_incidents_total counter\n")
	for k := StallKind(0); k < numStallKinds; k++ {
		var v uint64
		if fr != nil {
			v = fr.Count(k)
		}
		fmt.Fprintf(w, "hydra_incidents_total{kind=%q} %d\n", k.String(), v)
	}

	fmt.Fprintf(w, "# TYPE hydra_trace_events gauge\nhydra_trace_events %d\n", obs.Trace.Len())
}

// writePhaseFamily renders one histogram family over the non-empty
// (path, outcome) cells of the phase profile. fill receives each cell
// and an emit callback that prefixes the family's extra labels.
func writePhaseFamily(w io.Writer, name string, fill func(s *obs.PhaseSnapshot, emit func(labels string, h *hist.H))) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for p := obs.TxnPath(0); p < obs.NumPaths; p++ {
		for oc := obs.TxnOutcome(0); oc < obs.NumOutcomes; oc++ {
			s := obs.TxnPhases.Snapshot(p, oc)
			if s.Count == 0 {
				continue
			}
			fill(&s, func(labels string, h *hist.H) {
				full := fmt.Sprintf("%spath=%q,outcome=%q", labels, p.String(), oc.String())
				// writePromHist emits its own TYPE line; the family
				// already has one above, so strip every repeat.
				var b strings.Builder
				writePromHist(&b, name, full, h)
				io.WriteString(w, strings.TrimPrefix(b.String(), "# TYPE "+name+" histogram\n"))
			})
		}
	}
}

// traceMaxDefault caps a /trace response when the caller does not pass
// an explicit ?max=: the retained ring can hold far more events than a
// dashboard wants in one response body.
const traceMaxDefault = 4096

// NewMetricsMux returns the observability mux: /metrics, /stats,
// /trace, /slow, /incidents. Mount it on any listener; it holds only
// references to e and fr. fr may be nil — /incidents then serves an
// empty list and the incident counters read zero.
func NewMetricsMux(e *core.Engine, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, e, fr)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Snapshot(e, fr))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if v := q.Get("enable"); v != "" {
			on := v == "on" || v == "true" || v == "1"
			obs.Trace.SetEnabled(on)
		}
		var txn uint64
		if v := q.Get("txn"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad txn: "+err.Error(), http.StatusBadRequest)
				return
			}
			txn = n
		}
		max := traceMaxDefault
		if v := q.Get("max"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad max", http.StatusBadRequest)
				return
			}
			max = n
		}
		events := obs.Trace.DumpFiltered(txn, max)
		out := struct {
			Enabled bool             `json:"enabled"`
			Txn     uint64           `json:"txn,omitempty"`
			Capped  bool             `json:"capped"`
			Events  []TraceEventJSON `json:"events"`
		}{
			Enabled: obs.Trace.Enabled(),
			Txn:     txn,
			Capped:  max > 0 && len(events) == max,
			Events:  traceEventsJSON(events),
		}
		sort.SliceStable(out.Events, func(a, b int) bool { return out.Events[a].TSNs < out.Events[b].TSNs })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(slowJSON())
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		incidents := []Incident{}
		if fr != nil {
			incidents = fr.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Incidents []Incident `json:"incidents"`
		}{incidents})
	})
	return mux
}

// ServeMetrics listens on addr and serves the observability mux until
// the listener fails, with a stall flight recorder running alongside.
// It is a convenience for cmd/hydra-server; tests use httptest.Server
// around NewMetricsMux.
func ServeMetrics(addr string, e *core.Engine) error {
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	defer fr.Stop()
	srv := &http.Server{Addr: addr, Handler: NewMetricsMux(e, fr), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}
