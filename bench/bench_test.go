package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// streamBytes renders the first n ops of one client's stream as the
// request lines the server would receive.
func streamBytes(w *workload, seed uint64, client, n int) []byte {
	g := newGenerator(w, seed, client, clients)
	var out []byte
	for i := 0; i < n; i++ {
		o := g.next()
		if o.txn {
			out = append(out, reqBegin...)
		}
		for j := range o.stmts {
			out = g.appendRequest(out, &o.stmts[j])
		}
		if o.txn {
			out = append(out, reqCommit...)
		}
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := streamBytes(w, 42, 0, 500)
		if b := streamBytes(w, 42, 0, 500); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed and client gave different streams", w.name)
		}
		if b := streamBytes(w, 43, 0, 500); bytes.Equal(a, b) {
			t.Errorf("%s: another seed gave the same stream", w.name)
		}
		if b := streamBytes(w, 42, 1, 500); bytes.Equal(a, b) {
			t.Errorf("%s: another client gave the same stream", w.name)
		}
		if bytes.ContainsAny(bytes.ReplaceAll(a, []byte("\n"), nil), "\t\r") {
			t.Errorf("%s: stream holds whitespace the wire protocol would re-join", w.name)
		}
	}
}

func TestWritersOwnTheirKeys(t *testing.T) {
	w, err := workloadByName("set_durable")
	if err != nil {
		t.Fatal(err)
	}
	for client := 0; client < clients; client++ {
		g := newGenerator(w, 7, client, clients)
		for i := 0; i < 1000; i++ {
			s := g.next().stmts[0]
			if s.get || int(s.key)%clients != client || int(s.key) >= w.tables[0].rows {
				t.Fatalf("client %d drew statement %+v", client, s)
			}
		}
	}
}

func TestValueIsSelfDescribing(t *testing.T) {
	pad := bytes.Repeat([]byte("p"), padWindow+100)
	v := appendValue(nil, 12345, "1", 77, 100, pad, 9)
	if len(v) != 100 || !bytes.HasPrefix(v, []byte("12345:1:77:")) {
		t.Fatalf("value %q", v)
	}
	if !checkValue(v, 12345, 100) {
		t.Error("checkValue rejects its own value")
	}
	if checkValue(v, 1234, 100) || checkValue(v, 12345, 99) || checkValue(v[:99], 12345, 100) {
		t.Error("checkValue accepts a wrong key or length")
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7, 9, 30}, 50); got != 9 {
		t.Errorf("percentile of three = %d, want 9", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The expected values are statistics.quantiles(data, n=4) from Python,
// which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(3 1 4 1 5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func e2eMetric(name, better string, bound, med, spr float64) docMetric {
	return docMetric{Name: name, Unit: "x", Kind: "end_to_end", Better: better, Bound: bound, Median: med, Spread: spr}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new docMetric
		worse    float64
		verdict  string
	}{
		{"throughput falls past its bound", e2eMetric("t", "higher", 0.25, 1000, 0.02), e2eMetric("t", "higher", 0.25, 700, 0.02), 0.30, verdictRegressed},
		{"latency rises past its bound", e2eMetric("p", "lower", 0.05, 100, 0.01), e2eMetric("p", "lower", 0.05, 106, 0.01), 0.06, verdictRegressed},
		{"a rise inside the new side's spread", e2eMetric("p", "lower", 0.25, 100, 0.01), e2eMetric("p", "lower", 0.25, 103, 0.05), 0.03, verdictUnresolved},
		{"a fall inside the old side's spread", e2eMetric("p", "lower", 0.25, 100, 0.05), e2eMetric("p", "lower", 0.25, 97, 0.01), -0.03, verdictUnresolved},
		{"worse, resolved, within the bound", e2eMetric("p", "lower", 0.25, 100, 0.02), e2eMetric("p", "lower", 0.25, 110, 0.02), 0.10, verdictWorse},
		{"throughput up", e2eMetric("t", "higher", 0.25, 1000, 0.02), e2eMetric("t", "higher", 0.25, 1100, 0.02), -0.10, verdictBetter},
		{"past the bound even inside a wide spread", e2eMetric("p", "lower", 0.05, 100, 0.20), e2eMetric("p", "lower", 0.05, 110, 0.20), 0.10, verdictRegressed},
	} {
		worse, verdict := judge(&c.old, &c.new)
		if math.Abs(worse-c.worse) > 1e-9 || verdict != c.verdict {
			t.Errorf("%s: judge = %+.3f %s, want %+.3f %s", c.name, worse, verdict, c.worse, c.verdict)
		}
	}
}

func testDocument(throughput float64, failed int64) *document {
	return &document{
		Schema: schemaVersion, NProc: 2, Clients: clients, WindowS: 15, Runs: 5,
		Workloads: []docWorkload{{
			Name: "get_hot", Correct: true, Attempted: 1000, Failed: failed,
			ErrorRate: float64(failed) / 1000,
			Metrics: []docMetric{
				e2eMetric("throughput_ops_s", "higher", 0.25, throughput, 0.02),
				{Name: "buffer.hit_ratio", Kind: "per_layer", Median: 1},
			},
		}},
	}
}

func TestCompareDocuments(t *testing.T) {
	base := testDocument(1000, 0)
	if regressed, err := compareDocuments(io.Discard, base, testDocument(1010, 0)); err != nil || regressed {
		t.Errorf("a 1%% gain: regressed=%v err=%v", regressed, err)
	}
	var out strings.Builder
	if regressed, err := compareDocuments(&out, base, testDocument(700, 0)); err != nil || !regressed {
		t.Errorf("a 30%% loss: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), "buffer.hit_ratio") {
		t.Errorf("compare output:\n%s", out.String())
	}
	if regressed, err := compareDocuments(io.Discard, base, testDocument(1000, 1)); err != nil || !regressed {
		t.Errorf("any rise of error_rate must regress: regressed=%v err=%v", regressed, err)
	}
	for name, edit := range map[string]func(*document){
		"nproc":   func(d *document) { d.NProc = 8 },
		"clients": func(d *document) { d.Clients = 4 },
		"window":  func(d *document) { d.WindowS = 30 },
		"schema":  func(d *document) { d.Schema = "hydra-bench/v1" },
		"traced":  func(d *document) { d.Traced = true },
	} {
		other := testDocument(1000, 0)
		edit(other)
		if _, err := compareDocuments(io.Discard, base, other); err == nil {
			t.Errorf("documents differing in %s were compared", name)
		}
	}
}

// TestTracedCountsRepeat runs the traced passes twice at tiny scale: a
// single client's counts must repeat exactly from run to run and agree
// between the wire pass and the core pass.
func TestTracedCountsRepeat(t *testing.T) {
	tiny := []workload{
		{name: "tiny_mixed", tables: []tableSpec{{"kv", 600}}, valueSize: 100, getPermille: 500, traceOps: 150},
		{name: "tiny_txn", tables: []tableSpec{{"account", 50}, {"teller", 5}, {"branch", 1}, {"history", 0}},
			valueSize: 100, txn: true, traceOps: 60},
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tiny {
		w := &tiny[i]
		var first [4]*passResult
		for run := 0; run < 2; run++ {
			tr := &tracer{epoch: time.Now()}
			p, err := tracedPasses(w, 5, t.TempDir(), tr)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for k, name := range []string{"wire-untraced", "wire", "core", "layers"} {
				if p[k].failed != 0 {
					t.Errorf("%s: %s pass failed %d ops", w.name, name, p[k].failed)
				}
			}
			if p[1].counts != p[2].counts {
				t.Errorf("%s: wire pass counted %+v, core pass %+v", w.name, p[1].counts, p[2].counts)
			}
			if c := p[2].counts; c.Commits != uint64(w.traceOps) || c.LockAcquires == 0 || c.WalInserts == 0 || c.BufFetches == 0 {
				t.Errorf("%s: implausible counts %+v", w.name, c)
			}
			if len(tr.spans) == 0 {
				t.Errorf("%s: no spans recorded", w.name)
			}
			if run == 0 {
				first = p
				continue
			}
			for k := range p {
				if p[k].counts != first[k].counts {
					t.Errorf("%s: pass %d counted %+v, then %+v", w.name, k, first[k].counts, p[k].counts)
				}
			}
			// Every per-layer metric of BENCHMARK.json is reported, and
			// nothing else.
			got := metricNames(append(countMetrics(&liveResult{elapsed: time.Second}), timeMetrics(p)...))
			var want []string
			for _, m := range spec.PerLayer {
				want = append(want, m.Name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
		}
	}
}

func metricNames(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestBenchmarkJSON holds BENCHMARK.json to what the code runs and
// prints, and to the acceptance contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"go", "run", "./bench"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, the code runs %v", names, want)
	}
	names = nil
	hasSetup := false
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not an end-to-end metric")
	}
	live := &liveResult{samples: []int64{1, 2, 3}, elapsed: time.Second, setups: []float64{1}}
	if got := metricNames(endToEndMetrics(live)); !slices.Equal(names, got) {
		t.Errorf("end-to-end metrics %v, the code reports %v", names, got)
	}
}

func TestValidateSeparatesTheWorkloads(t *testing.T) {
	counts := func(misses, waits, syncs float64) []metric {
		return []metric{{Name: "buffer.misses_per_op", Value: misses}, {Name: "lock.waits_per_op", Value: waits}, {Name: "wal.syncs_per_s", Value: syncs}}
	}
	byName := func(name string) *workload {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, c := range []struct {
		w    string
		m    []metric
		fail bool
	}{
		{"get_hot", counts(0, 0, 0), false},
		{"get_hot", counts(0.02, 0, 0), true}, // misses on a hot workload
		{"get_hot", counts(0, 0, 5), true},    // a read-only workload that syncs
		{"set_durable", counts(0, 0, 5000), false},
		{"set_durable", counts(0, 0.02, 5000), true}, // waits without contention
		{"mixed_cold", counts(0.65, 0, 4000), false},
		{"mixed_cold", counts(0.1, 0, 4000), true}, // the data fits the pool after all
		{"txn_hot", counts(0, 0.12, 6000), false},
		{"txn_hot", counts(0, 0.01, 6000), true}, // the clients never collide
	} {
		if bad := validate(byName(c.w), c.m); (len(bad) > 0) != c.fail {
			t.Errorf("%s %v: problems %v, want failure %v", c.w, c.m, bad, c.fail)
		}
	}
}
