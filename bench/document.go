package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// schemaVersion names the layout of a run document; -compare refuses
// documents of another schema.
const schemaVersion = "hydra-wire-bench/v1"

// flushPolicy is the server's durability shape during every run; it
// has no server flag, so it is stated and not chosen.
const flushPolicy = "scalable config: SyncCommit on (commit waits for WAL fsync, group commit), ELR on, MVCC off, 4096 frames x 8 KiB pool, file-backed pages.db + wal.log"

// document is the record of one set of runs: numbers only, with the
// machine and settings they were measured under.
type document struct {
	Schema      string        `json:"schema"`
	Commit      string        `json:"commit"`
	Seed        uint64        `json:"seed"`
	Runs        int           `json:"runs"`
	Traced      bool          `json:"traced"`
	NProc       int           `json:"nproc"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	GoVersion   string        `json:"go_version"`
	Kernel      string        `json:"kernel"`
	FSType      string        `json:"data_dir_fs_type"`
	Clients     int           `json:"clients"`
	WindowS     int           `json:"window_s"`
	WarmupS     float64       `json:"warmup_s"`
	SetupReps   int           `json:"setup_reps"`
	FlushPolicy string        `json:"flush_policy"`
	Workloads   []docWorkload `json:"workloads"`

	spec *benchmarkSpec
}

type docWorkload struct {
	Name      string      `json:"name"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	ErrorRate float64     `json:"error_rate"`
	Metrics   []docMetric `json:"metrics"`
}

// docMetric is one metric of one workload over the document's runs.
type docMetric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"`             // end_to_end, per_layer or informational
	Better  string    `json:"better,omitempty"` // end_to_end and per_layer
	Bound   float64   `json:"bound,omitempty"`  // end_to_end: share of the old median it may worsen by
	Values  []float64 `json:"values"`           // one per run
	Samples []int64   `json:"samples"`          // observations behind each value
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"` // (q3-q1)/median; 0 with fewer than two runs
}

func newDocument(env *environment, seed uint64, seconds int, traced bool, runs int) *document {
	return &document{
		Schema:      schemaVersion,
		Commit:      commitOf(env.root),
		Seed:        seed,
		Runs:        runs,
		Traced:      traced,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      kernelRelease(),
		FSType:      fsType(env.workDir),
		Clients:     clients,
		WindowS:     seconds,
		WarmupS:     warmup.Seconds(),
		SetupReps:   setupReps,
		FlushPolicy: flushPolicy,
		spec:        env.spec,
	}
}

// commitOf names the commit measured; the acceptance checkout is not a
// git repository, and then the commit is unknown.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem under dir: fsync and page-read cost are
// its, so documents from different filesystems are different machines.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// add folds one run of one workload into the document.
func (d *document) add(r *runResult) {
	w := d.workload(r.workload)
	if w == nil {
		d.Workloads = append(d.Workloads, docWorkload{Name: r.workload, Correct: true})
		w = &d.Workloads[len(d.Workloads)-1]
	}
	w.Correct = w.Correct && r.correct
	w.Attempted += r.attempted
	w.Failed += r.failed
	put := func(kind string, ms []metric) {
		for _, m := range ms {
			dm := w.metric(m.Name)
			if dm == nil {
				w.Metrics = append(w.Metrics, docMetric{Name: m.Name, Unit: m.Unit, Kind: kind})
				dm = &w.Metrics[len(w.Metrics)-1]
				dm.Better, dm.Bound = d.spec.lookup(kind, m.Name)
			}
			dm.Values = append(dm.Values, m.Value)
			dm.Samples = append(dm.Samples, m.Samples)
		}
	}
	put("end_to_end", r.endToEnd)
	put("per_layer", r.perLayer)
	put("informational", r.informational)
}

// lookup returns the direction and bound BENCHMARK.json fixes for a
// metric; informational metrics have neither.
func (s *benchmarkSpec) lookup(kind, name string) (better string, bound float64) {
	switch kind {
	case "end_to_end":
		for _, m := range s.EndToEnd {
			if m.Name == name {
				return m.Better, m.Bound
			}
		}
	case "per_layer":
		for _, m := range s.PerLayer {
			if m.Name == name {
				return m.Better, 0
			}
		}
	}
	return "", 0
}

// finish computes each metric's median, quartiles and spread.
func (d *document) finish() {
	for i := range d.Workloads {
		w := &d.Workloads[i]
		w.ErrorRate = ratio(float64(w.Failed), float64(w.Attempted))
		for j := range w.Metrics {
			m := &w.Metrics[j]
			m.Median = median(m.Values)
			m.Q1, m.Q3 = m.Median, m.Median
			if len(m.Values) >= 2 {
				m.Q1, _, m.Q3 = quartiles(m.Values)
			}
			m.Spread = spread(m.Values)
		}
	}
}

func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: run document written to %s\n", path)
	return nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints the comparison of two run documents and returns
// the process exit code: 0 when nothing is past its bound, 1 when
// something is, 2 when the documents cannot be compared.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	regressed, err := func() (bool, error) {
		oldDoc, err := readDocument(oldPath)
		if err != nil {
			return false, err
		}
		newDoc, err := readDocument(newPath)
		if err != nil {
			return false, err
		}
		return compareDocuments(w, oldDoc, newDoc)
	}()
	switch {
	case err != nil:
		fmt.Fprintln(w, "bench: compare:", err)
		return 2
	case regressed:
		return 1
	}
	return 0
}

// verdicts of one (workload, metric) pair.
const (
	verdictRegressed  = "REGRESSED"  // worse by more than the bound
	verdictUnresolved = "unresolved" // the delta is inside the recorded run-to-run spread
	verdictWorse      = "worse"      // outside the spread, inside the bound
	verdictBetter     = "better"     // outside the spread, in the good direction
)

// judge classifies the move of one end-to-end metric. worse is the
// signed share of the old median by which the new median is worse
// (negative: better). A delta no larger than the recorded spread of
// either side is noise: unresolved, not unchanged. Past the bound it
// is a regression all the same, because the bound is what was fixed.
func judge(oldM, newM *docMetric) (worse float64, verdict string) {
	worse = ratio(newM.Median-oldM.Median, oldM.Median)
	if oldM.Better == "higher" {
		worse = -worse
	}
	noise := max(oldM.Spread, newM.Spread)
	switch {
	case worse > oldM.Bound:
		return worse, verdictRegressed
	case worse <= noise && worse >= -noise:
		return worse, verdictUnresolved
	case worse > 0:
		return worse, verdictWorse
	default:
		return worse, verdictBetter
	}
}

// compareDocuments prints each (workload, end-to-end metric) delta
// against its bound and reports whether any is past it. error_rate
// has bound 0: any rise is a regression.
func compareDocuments(w io.Writer, oldDoc, newDoc *document) (regressed bool, err error) {
	switch {
	case oldDoc.Schema != schemaVersion || newDoc.Schema != schemaVersion:
		return false, fmt.Errorf("schema %q vs %q: this tool compares %q", oldDoc.Schema, newDoc.Schema, schemaVersion)
	case oldDoc.NProc != newDoc.NProc:
		return false, fmt.Errorf("nproc differs: %d vs %d", oldDoc.NProc, newDoc.NProc)
	case oldDoc.Clients != newDoc.Clients:
		return false, fmt.Errorf("clients differ: %d vs %d", oldDoc.Clients, newDoc.Clients)
	case oldDoc.WindowS != newDoc.WindowS:
		return false, fmt.Errorf("window differs: %d s vs %d s", oldDoc.WindowS, newDoc.WindowS)
	case oldDoc.Traced != newDoc.Traced:
		return false, fmt.Errorf("a traced and an untraced document are never mixed")
	}
	fmt.Fprintf(w, "old %s (%d runs)  new %s (%d runs)\n", oldDoc.Commit, oldDoc.Runs, newDoc.Commit, newDoc.Runs)
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse-by", "bound", "spread", "verdict")
	for i := range oldDoc.Workloads {
		ow := &oldDoc.Workloads[i]
		nw := newDoc.workload(ow.Name)
		if nw == nil {
			return false, fmt.Errorf("workload %s is missing from the new document", ow.Name)
		}
		for j := range ow.Metrics {
			om := &ow.Metrics[j]
			if om.Kind != "end_to_end" {
				continue
			}
			nm := nw.metric(om.Name)
			if nm == nil {
				return false, fmt.Errorf("%s: metric %s is missing from the new document", ow.Name, om.Name)
			}
			worse, verdict := judge(om, nm)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+8.2f%% %6.1f%% %6.2f%%  %s\n",
				ow.Name, om.Name, om.Median, nm.Median, 100*worse, 100*om.Bound, 100*max(om.Spread, nm.Spread), verdict)
		}
		verdict := "same"
		if nw.ErrorRate > ow.ErrorRate {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-12s %-18s %14.6f %14.6f %9s %6.1f%% %7s  %s\n",
			ow.Name, "error_rate", ow.ErrorRate, nw.ErrorRate, "", 0.0, "", verdict)
	}
	return regressed, nil
}

func (d *document) workload(name string) *docWorkload {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

func (w *docWorkload) metric(name string) *docMetric {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}
