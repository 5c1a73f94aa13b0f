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
	"net/http"
	"sort"
	"strconv"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/hist"
	"hydra/internal/obs"
)

// HistJSON is the wire form of one latency distribution: a quantile
// summary. A snapshot taken in this process also carries the buckets,
// which /metrics renders; a decoded one does not (the summary cannot
// be turned back into them).
type HistJSON struct {
	Count   uint64 `json:"count"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P90Ns   int64  `json:"p90_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	Summary string `json:"summary"`

	h hist.H
}

func histJSON(h hist.H) HistJSON {
	return HistJSON{
		h:       h,
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
	Tier    string   `json:"tier" metric:"label"`
	Ops     uint64   `json:"ops" metric:"name=hydra_latch_acquires_total"`
	Acquire HistJSON `json:"acquire" metric:"name=hydra_latch_acquire_seconds"`
}

// StatsJSON is the full snapshot served at /stats and by STATS FULL,
// and the one definition of every metric: /metrics, hydra-cli and
// hydra-top walk it (metrics.go). The engine's groups are the
// subsystems' own Stats structs.
type StatsJSON struct {
	UptimeSec float64 `json:"uptime_sec" metric:"-"`
	core.Stats
	LockWait HistJSON         `json:"lock_wait"`
	Dora     DoraJSON         `json:"dora"`
	Latches  []TierJSON       `json:"latches"`
	Phases   []PhaseCellJSON  `json:"phases"`
	Slow     SlowJSON         `json:"slow"`
	Runtime  obs.RuntimeStats `json:"runtime"`
	// Incidents is the cumulative total over IncidentKinds, which
	// /metrics labels by kind.
	Incidents     int             `json:"incidents" metric:"-"`
	IncidentKinds []IncidentCount `json:"-"`
	TraceEnabled  bool            `json:"trace_enabled"`
	TraceEvents   int             `json:"trace_events" metric:"gauge"`
}

// IncidentCount is the stall flight recorder's tally of one kind.
type IncidentCount struct {
	Kind  string `json:"kind" metric:"label"`
	Count uint64 `json:"count" metric:"name=hydra_incidents_total"`
}

// DoraJSON aggregates every live DORA engine in the process (the
// executors belong to the DORA layer above the core engine, so they
// register in a process-global registry rather than hanging off e).
type DoraJSON struct {
	dora.Counters
	QueueDepths []int    `json:"queue_depths" metric:"gauge,name=hydra_dora_queue_depth,key=executor"`
	Service     HistJSON `json:"action_service"`
	Wait        HistJSON `json:"action_wait"`
}

// PhaseCellJSON is one (path, outcome) cell of the transaction phase
// profile: the total wall-time distribution plus each phase's
// distribution over the transactions where that phase was non-zero.
type PhaseCellJSON struct {
	Path    string              `json:"path" metric:"label"`
	Outcome string              `json:"outcome" metric:"label"`
	Count   uint64              `json:"count" metric:"-"`
	Total   HistJSON            `json:"total" metric:"name=hydra_txn_total_seconds"`
	Phase   map[string]HistJSON `json:"phase" metric:"name=hydra_txn_phase_seconds,key=phase"`
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
	Rotated  uint64        `json:"rotated" metric:"name=hydra_slow_rotations_total"`
	WindowNs int64         `json:"window_ns" metric:"-"`
	Entries  []SlowTxnJSON `json:"entries" metric:"-"`
}

func slowJSON() SlowJSON {
	s := obs.SlowTxns.Snapshot()
	return SlowJSON{
		Admitted: s.Admitted, Rotated: s.Rotated, WindowNs: s.WindowNs,
		Entries: slowTxnsJSON(s.Entries),
	}
}

// Snapshot collects one consistent-enough view of the engine's
// observability state. Counters are striped atomics, so the view is
// racy across counters but each value is a real point-in-time sum.
// fr may be nil (no flight recorder running).
func Snapshot(e *core.Engine, fr *FlightRecorder) StatsJSON {
	out := metricsSnapshot(e, fr)
	out.Slow = slowJSON()
	return out
}

// metricsSnapshot is Snapshot as /metrics needs it: of the slow
// reservoir only the two counters, not the copied and sorted entries
// the exposition never renders.
func metricsSnapshot(e *core.Engine, fr *FlightRecorder) StatsJSON {
	ds := dora.GlobalStats()
	tiers := obs.LatchSnapshot()
	out := StatsJSON{
		UptimeSec:    time.Duration(obs.Now()).Seconds(),
		Stats:        e.StatsSnapshot(),
		LockWait:     histJSON(e.Locks().WaitHist()),
		Dora:         DoraJSON{ds.Counters, ds.QueueDepths, histJSON(ds.Service), histJSON(ds.Wait)},
		Latches:      make([]TierJSON, 0, len(tiers)),
		Phases:       phaseCells(),
		Slow:         SlowJSON{Admitted: obs.SlowTxns.Admitted(), Rotated: obs.SlowTxns.Rotations()},
		Runtime:      obs.RuntimeSnapshot(),
		TraceEnabled: obs.Trace.Enabled(),
		TraceEvents:  obs.Trace.Len(),
	}
	for _, t := range tiers {
		out.Latches = append(out.Latches, TierJSON{t.Tier, t.Ops, histJSON(t.Acquire)})
	}
	for k := StallKind(0); k < numStallKinds; k++ {
		n := uint64(0)
		if fr != nil {
			n = fr.Count(k)
		}
		out.IncidentKinds = append(out.IncidentKinds, IncidentCount{k.String(), n})
		out.Incidents += int(n)
	}
	return out
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
		st := metricsSnapshot(e, fr)
		writeMetrics(w, &st)
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
