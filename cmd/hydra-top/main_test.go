package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hydra/internal/server"
)

// TestRenderShowsEveryCounterWithRates renders a second frame and
// walks the snapshot's JSON, not the metric plan: every number of
// every group must be on the screen as key=value, counters with a
// rate, and the derived figures and tables must still be there.
func TestRenderShowsEveryCounterWithRates(t *testing.T) {
	var prev, st server.StatsJSON
	st.UptimeSec = 3
	st.Commits, st.Aborts = 500, 2
	st.Lock.Acquires, st.Lock.HeadAllocs, st.Lock.HeadRecycles = 2000, 10, 30
	st.Log.Inserts, st.Log.Flushes, st.Log.FlushWrites = 1500, 500, 500
	st.Buffer.Hits, st.Buffer.Misses = 990, 10
	st.Mvcc.Installs, st.Mvcc.ActiveSnapshots = 7, 1
	st.Index.Descents, st.Index.AbsentMemoHits = 12, 5
	st.Dora.SinglePartition, st.Dora.CrossPartition, st.Dora.QueueDepths = 3, 1, []int{0, 2}
	st.Dora.Service = server.HistJSON{Count: 4, Summary: "n=4 service-summary"}
	st.Runtime.Goroutines = 9
	st.Latches = []server.TierJSON{{Tier: "lock_part", Ops: 77, Acquire: server.HistJSON{P99Ns: 1500}}}
	st.Phases = []server.PhaseCellJSON{{Path: "conv", Outcome: "commit", Count: 500,
		Total: server.HistJSON{Count: 500, MeanNs: 1000, P50Ns: 900},
		Phase: map[string]server.HistJSON{"flush_wait": {Count: 500, MeanNs: 800}}}}
	st.Slow = server.SlowJSON{Admitted: 1, WindowNs: int64(10 * time.Second),
		Entries: []server.SlowTxnJSON{{Txn: 42, Path: "conv", Outcome: "commit", TotalNs: 5000, Phase: map[string]int64{"flush_wait": 4000}}}}
	st.Incidents = 11

	var out bytes.Buffer
	render(&out, &st, &prev, 2*time.Second)
	text := out.String()

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	// Printed in their own formats, not as key=value.
	own := map[string]bool{"uptime_sec": true, "incidents": true, "window_ns": true}
	var check func(obj map[string]any)
	check = func(obj map[string]any) {
		for k, v := range obj {
			switch x := v.(type) {
			case json.Number:
				if want := k + "=" + x.String(); !own[k] && !strings.Contains(text, want) {
					t.Errorf("frame lacks %s", want)
				}
			case map[string]any:
				if _, dist := x["summary"]; !dist {
					check(x)
				}
			}
		}
	}
	check(doc)
	for _, want := range []string{
		"commits=500(250/s)", "acquires=2000(1000/s)", "queue_depths=[0 2]", "n=4 service-summary",
		"buffer hit=99.00%", "3.0 records/flush", "1.00 writes/flush", "75.0% recycled", "75.0% single-partition",
		"lock_part", "1.5µs", "conv/commit", "flush_wait 80%", "txn=42", "INCIDENTS 11 captured",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("frame lacks %q", want)
		}
	}

	if strings.Contains(text, "active_snapshots=1(") {
		t.Error("a gauge is shown with a rate")
	}

	// The first frame has no rates.
	out.Reset()
	render(&out, &st, nil, 0)
	if strings.Contains(out.String(), "/s)") {
		t.Error("first frame shows rates")
	}
}
