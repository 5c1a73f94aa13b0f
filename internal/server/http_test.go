package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/obs"
)

func startMetrics(t *testing.T) (*core.Engine, *httptest.Server) {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	t.Cleanup(func() {
		ts.Close()
		fr.Stop()
		e.Close()
	})
	return e, ts
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkExposition validates the Prometheus text format line by line:
// every non-comment line must be `name[{labels}] value` with a
// parseable value, histogram buckets must be cumulative, and every
// family must carry a TYPE line.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	lastBucket := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
		}
		family := base
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suf) && typed[strings.TrimSuffix(base, suf)] {
				family = strings.TrimSuffix(base, suf)
			}
		}
		if !typed[family] {
			t.Fatalf("sample %q has no TYPE line (family %q)", line, family)
		}
		if strings.HasSuffix(base, "_bucket") {
			// Cumulative within one labeled series: key by full name
			// minus the le label.
			series := name[:strings.Index(name, "le=")]
			v, _ := strconv.ParseUint(val, 10, 64)
			if v < lastBucket[series] {
				t.Fatalf("non-cumulative bucket in %q", line)
			}
			lastBucket[series] = v
		}
	}
}

// sample returns the value of one series of the exposition, or -1
// (with a test error) when it is absent.
func sample(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && name == series {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Errorf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Errorf("/metrics has no series %s", series)
	return -1
}

// The exposition tests below drive live traffic and assert the values
// it moves; which names exist at all is TestEverySurfaceCarriesEveryLeaf's
// table.
func TestMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)

	// Generate traffic so counters and per-tier histograms are live.
	tbl, err := e.CreateTable("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	if got := sample(t, body, "hydra_commits_total"); got < 200 {
		t.Errorf("hydra_commits_total = %v after 200 commits", got)
	}
	for _, moved := range []string{
		"hydra_log_inserts_total",
		"hydra_buffer_hits_total",
		"hydra_lock_head_allocs_total",
		"hydra_lock_head_retires_total",
		`hydra_latch_acquires_total{tier="lock_part"}`,
	} {
		if sample(t, body, moved) <= 0 {
			t.Errorf("%s did not move under load", moved)
		}
	}
}

// TestEveryLatchTierExposed drives every tier internal/invariant
// declares — file-backed log, -mvcc writers and a snapshot reader, a
// checkpoint, a DORA inbox, a Coarse index — and requires each one's
// acquisitions on /metrics, under the labels the tiers had before they
// were declared once.
func TestEveryLatchTierExposed(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	cfg.Dir = t.TempDir()
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ts := httptest.NewServer(NewMetricsMux(e, nil))
	defer ts.Close()

	tbl, err := e.CreateTable("tiers")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
		if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, i, []byte("w")) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Exec(func(tx *core.Txn) error { _, err := tx.Read(tbl, 1); return err }, core.Intent{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 2})
	err = d.ExecSingle(dora.Action{Table: tbl, Key: 1, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, 1); return err }})
	d.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The tree lock is the Coarse index's alone (a Crabbing tree takes
	// none): one insert into a Conventional engine's table.
	ce, err := core.Open(core.Conventional())
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	coarse, err := ce.CreateTable("coarse")
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.Exec(func(tx *core.Txn) error { return tx.Insert(coarse, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	tiers := obs.LatchTiers()
	for _, old := range []string{
		"engine_ckpt", "tree", "lock_part", "frame_latch",
		"pool_shard", "wal_log", "wal_device", "dora_queue", "mvcc_shard",
	} {
		if !slices.Contains(tiers, old) {
			t.Errorf("tier label %q is gone; declared: %v", old, tiers)
		}
	}
	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for _, tier := range tiers {
		if got := sample(t, body, fmt.Sprintf("hydra_latch_acquires_total{tier=%q}", tier)); got <= 0 {
			t.Errorf("tier %s: %v acquisitions", tier, got)
		}
	}
}

// TestPhaseMetricsExposition drives committed traffic and asserts the
// transaction critical-path accounting families — phase histograms,
// the slow-transaction reservoir, and the incident counters — appear
// in the Prometheus exposition. CI's bench-smoke target runs this to
// guard the observability contract.
func TestPhaseMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("ph")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	if got := sample(t, body, `hydra_txn_total_seconds_count{path="conv",outcome="commit"}`); got < 100 {
		t.Errorf("conv/commit total count = %v after 100 commits", got)
	}
	for _, moved := range []string{
		`hydra_txn_phase_seconds_count{phase="flush_wait",path="conv",outcome="commit"}`,
		"hydra_slow_admitted_total",
	} {
		if sample(t, body, moved) <= 0 {
			t.Errorf("%s did not move under load", moved)
		}
	}
	// Every stall kind has its series from the start, at zero.
	for k := StallKind(0); k < numStallKinds; k++ {
		if got := sample(t, body, fmt.Sprintf("hydra_incidents_total{kind=%q}", k)); got != 0 {
			t.Errorf("incidents of kind %s = %v on a healthy engine", k, got)
		}
	}

	// The same accounting shows on /stats for hydra-top.
	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Phases) == 0 {
		t.Fatal("/stats has no phase cells after committed traffic")
	}
}

// TestDoraMetricsExposition drives live single- and cross-partition
// DORA load and asserts the hydra_dora_* families show it on both
// /metrics and /stats.
func TestDoraMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("d")
	if err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 4})
	defer d.Close()
	for i := uint64(0); i < 64; i++ {
		i := i
		if err := d.ExecSingle(dora.Action{Table: tbl, Key: i, Fn: func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// One guaranteed cross-partition transaction: two keys on
	// different executors.
	k1 := uint64(1)
	k2 := uint64(2)
	for ; d.Route(tbl, k2) == d.Route(tbl, k1); k2++ {
	}
	if err := d.Exec([]dora.Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k1); return err }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k2); return err }},
	}}); err != nil {
		t.Fatal(err)
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for series, atLeast := range map[string]float64{
		"hydra_dora_actions_total":                66,
		"hydra_dora_batches_total":                1,
		"hydra_dora_batched_jobs_total":           66,
		`hydra_dora_txns_total{path="single"}`:    64,
		`hydra_dora_txns_total{path="cross"}`:     1,
		`hydra_dora_queue_depth{executor="3"}`:    0,
		"hydra_dora_action_service_seconds_count": 66,
		"hydra_dora_action_wait_seconds_count":    1,
	} {
		if got := sample(t, body, series); got < atLeast {
			t.Errorf("%s = %v, want >= %v", series, got, atLeast)
		}
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Dora.ActionsExecuted < 66 {
		t.Errorf("dora actions = %d, want >= 66", st.Dora.ActionsExecuted)
	}
	if st.Dora.SinglePartition != 64 || st.Dora.CrossPartition != 1 {
		t.Errorf("dora txns: single=%d cross=%d", st.Dora.SinglePartition, st.Dora.CrossPartition)
	}
	if len(st.Dora.QueueDepths) != 4 {
		t.Errorf("queue depths = %v", st.Dora.QueueDepths)
	}
	if st.Dora.Service.Count == 0 {
		t.Error("dora service histogram empty")
	}
}

func TestStatsJSONEndpoint(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Commits == 0 {
		t.Error("commits not reported")
	}
	if st.Log.Inserts == 0 {
		t.Error("log inserts not reported")
	}
	// The committed insert took and released row/table locks, so the
	// lock-head lifecycle counters must be live on the wire.
	if st.Lock.HeadAllocs == 0 {
		t.Error("lock head allocs not reported")
	}
	if st.Lock.HeadRetires == 0 {
		t.Error("lock head retires not reported")
	}
	if len(st.Latches) == 0 {
		t.Error("no latch tiers reported")
	}
	for _, tier := range st.Latches {
		if tier.Ops == 0 {
			t.Errorf("tier %q reported with zero ops", tier.Tier)
		}
	}
}

func TestTraceEndpointToggle(t *testing.T) {
	e, ts := startMetrics(t)
	defer obs.Trace.SetEnabled(false)

	get(t, ts.URL+"/trace?enable=on")
	if !obs.Trace.Enabled() {
		t.Fatal("enable=on did not enable the tracer")
	}
	tbl, err := e.CreateTable("tr")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Enabled bool `json:"enabled"`
		Events  []struct {
			Kind string `json:"kind"`
			Txn  uint64 `json:"txn"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/trace?enable=off")), &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Fatal("enable=off did not disable the tracer")
	}
	kinds := map[string]bool{}
	for _, ev := range out.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"begin", "log-append", "commit"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (got %v)", want, kinds)
		}
	}
}

// TestScrapeUnderLoad hammers /metrics and /stats while a write/abort
// workload runs — the concurrency contract of the whole surface. Run
// with -race this is the PR's required scrape-safety proof.
func TestScrapeUnderLoad(t *testing.T) {
	e, ts := startMetrics(t)
	obs.Trace.SetEnabled(true)
	defer obs.Trace.SetEnabled(false)

	tbl, err := e.CreateTable("load")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		scrapers = 4
		txns     = 150
		scrapes  = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				key := id*txns + uint64(i)
				if i%5 == 4 {
					tx := e.Begin()
					_ = tx.Insert(tbl, key, []byte("doomed"))
					if err := tx.Abort(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := e.Exec(func(tx *core.Txn) error {
					return tx.Insert(tbl, key, []byte(fmt.Sprintf("v%d", key)))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				switch (id + i) % 3 {
				case 0:
					checkExposition(t, get(t, ts.URL+"/metrics"))
				case 1:
					var st StatsJSON
					if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
						t.Error(err)
						return
					}
				case 2:
					get(t, ts.URL+"/trace")
				}
			}
		}(s)
	}
	wg.Wait()

	// After the dust settles the counters must reconcile exactly.
	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	wantAborts := uint64(writers * txns / 5)
	if st.Aborts < wantAborts {
		t.Errorf("aborts = %d, want >= %d", st.Aborts, wantAborts)
	}
	if st.Commits < uint64(writers*txns)-wantAborts {
		t.Errorf("commits = %d, want >= %d", st.Commits, uint64(writers*txns)-wantAborts)
	}
}

func TestStatsFullProtocolCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("f", 1, "x"); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits == 0 {
		t.Error("STATS FULL reported zero commits")
	}
	if len(st.Latches) == 0 {
		t.Error("STATS FULL reported no latch tiers")
	}
}

// TestMVCCMetricsExposition drives snapshot-read traffic on an
// MVCC-enabled engine and asserts the hydra_mvcc_* families (and the
// lock bypass counter) appear in the exposition, with the zero-lock
// signature: snapshot reads climb while lock acquires stay flat.
// CI's bench-smoke target runs this to guard the observability
// contract.
func TestMVCCMetricsExposition(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	t.Cleanup(func() {
		ts.Close()
		fr.Stop()
		e.Close()
	})

	tbl, err := e.CreateTable("mv")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Begin(core.Intent{ReadOnly: true})
	for i := uint64(0); i < 64; i++ {
		if _, err := s.Read(tbl, i); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the snapshot across an update so a chain read happens and
	// the active-snapshot gauge is non-zero at scrape time.
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 1, []byte("w")) }); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "v" {
		t.Fatalf("chain read %q, %v", v, err)
	}
	// SI writer traffic: one commit and one deterministic
	// first-committer-wins abort, so both si counters are non-zero.
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 2, []byte("si")) }, core.Intent{Optimistic: true}); err != nil {
		t.Fatal(err)
	}
	loser := e.Begin(core.Intent{Optimistic: true})
	if err := loser.Update(tbl, 3, []byte("l")); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 3, []byte("w")) }); err != nil {
		t.Fatal(err)
	}
	if err := loser.Commit(); !errors.Is(err, core.ErrWriteConflict) {
		t.Fatalf("loser commit: %v, want ErrWriteConflict", err)
	}
	if err := loser.Abort(); err != nil {
		t.Fatal(err)
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for series, want := range map[string]float64{
		"hydra_mvcc_snapshot_begins_total":    1,
		"hydra_mvcc_active_snapshots":         1,
		"hydra_mvcc_si_begins_total":          2,
		"hydra_mvcc_si_commits_total":         1,
		"hydra_mvcc_si_conflict_aborts_total": 1,
	} {
		if got := sample(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	for _, moved := range []string{
		"hydra_mvcc_snapshot_reads_total",
		"hydra_mvcc_chain_reads_total",
		"hydra_mvcc_installs_total",
		"hydra_mvcc_live_nodes",
		"hydra_mvcc_snapshot_floor",
		"hydra_mvcc_oldest_snapshot_age_seconds",
		"hydra_lock_bypasses_total",
	} {
		if sample(t, body, moved) <= 0 {
			t.Errorf("%s did not move under snapshot traffic", moved)
		}
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Mvcc.SnapshotReads < 65 {
		t.Errorf("snapshot reads = %d, want >= 65", st.Mvcc.SnapshotReads)
	}
	if st.Mvcc.ChainReads == 0 {
		t.Error("no chain reads recorded")
	}
	if st.Mvcc.SnapshotBegins != 1 || st.Mvcc.ActiveSnapshots != 1 {
		t.Errorf("snapshot registry: begins=%d active=%d", st.Mvcc.SnapshotBegins, st.Mvcc.ActiveSnapshots)
	}
	if st.Lock.Bypasses < 65 {
		t.Errorf("lock bypasses = %d, want >= 65", st.Lock.Bypasses)
	}
	if st.Mvcc.SIBegins != 2 || st.Mvcc.SICommits != 1 || st.Mvcc.SIConflictAborts != 1 {
		t.Errorf("si counters: begins=%d commits=%d conflicts=%d",
			st.Mvcc.SIBegins, st.Mvcc.SICommits, st.Mvcc.SIConflictAborts)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
