// Command bench is the wire-level benchmark of record: four workloads
// driven over TCP against a live hydra-server child process, with a
// separate traced run that attributes the time to layers. See
// README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs K] [-out FILE]
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs all four")
		seed         = flag.Uint64("seed", 1, "seed of every generated key and value")
		seconds      = flag.Int("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 runs the traced, per-layer run; 0 the end-to-end run")
		runs         = flag.Int("runs", 1, "repetitions, on seeds seed..seed+runs-1; the document records their spread")
		out          = flag.String("out", "", "run document to write (default bench/out/run[-trace].json)")
		compare      = flag.Bool("compare", false, "compare two run documents: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		ws = []workload{*w}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	env, err := prepare(ctx)
	if err != nil {
		fatal(err)
	}
	ok, err := runAll(ctx, env, ws, *seed, *seconds, *trace == 1, *runs, *out)
	env.cleanup()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// environment is where a run builds and keeps its files: everything
// lives under the checkout.
type environment struct {
	root      string // module root
	workDir   string // per-process scratch under .bench_build
	serverBin string
	spec      *benchmarkSpec
}

func (e *environment) cleanup() { os.RemoveAll(e.workDir) }

// prepare finds the module root, reads BENCHMARK.json and builds
// hydra-server from the checkout's source.
func prepare(ctx context.Context) (*environment, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	workDir := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	env := &environment{root: root, workDir: workDir, spec: spec, serverBin: filepath.Join(workDir, "hydra-server")}
	build := exec.CommandContext(ctx, "go", "build", "-o", env.serverBin, "./cmd/hydra-server")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		env.cleanup()
		return nil, fmt.Errorf("build hydra-server: %v\n%s", err, outp)
	}
	return env, nil
}

// moduleRoot walks up from the working directory to hydra's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module hydra\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the hydra module: no go.mod with `module hydra` found")
		}
		dir = parent
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads
// back: the bounds travel with every run document.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runResult is one workload's run, ready to print and record.
type runResult struct {
	workload          string
	correct           bool
	attempted, failed int64
	endToEnd          []metric // empty on a traced run
	perLayer          []metric // counts; plus times on a traced run
	informational     []metric
	problems          []string
}

// warmup is the untimed traffic before a window. Two seconds turn the
// cold workload's pool over four times and let the log, the lock table
// and both runtimes reach their steady state.
const warmup = 2 * time.Second

// runAll runs every requested workload `runs` times, prints each
// result, and writes the run document.
func runAll(ctx context.Context, env *environment, ws []workload, seed uint64, seconds int, traced bool, runs int, out string) (bool, error) {
	doc := newDocument(env, seed, seconds, traced, runs)
	allOK := true
	for i := range ws {
		w := &ws[i]
		for run := 0; run < runs; run++ {
			var r *runResult
			var err error
			if traced {
				r, err = runTraced(ctx, env, w, seed+uint64(run), seconds)
			} else {
				r, err = runEndToEnd(ctx, env, w, seed+uint64(run), seconds)
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			doc.add(r)
			printResult(r, traced)
			allOK = allOK && r.correct
		}
	}
	doc.finish()
	if out == "" {
		name := "run.json"
		if traced {
			name = "run-trace.json"
		}
		out = filepath.Join(env.root, "bench", "out", name)
	}
	if err := doc.write(out); err != nil {
		return false, err
	}
	return allOK, nil
}

// runEndToEnd is the untraced run: what a client on a socket sees.
func runEndToEnd(ctx context.Context, env *environment, w *workload, seed uint64, seconds int) (*runResult, error) {
	window := time.Duration(seconds) * time.Second
	live, err := runLive(ctx, &liveConfig{
		w: w, seed: seed, warmup: warmup, window: window,
		setupReps: setupReps, serverBin: env.serverBin, workDir: env.workDir,
	})
	if err != nil {
		return nil, err
	}
	r := &runResult{
		workload:      w.name,
		endToEnd:      endToEndMetrics(live),
		perLayer:      countMetrics(live),
		informational: informationalMetrics(live),
		attempted:     live.attempted,
		failed:        live.failed,
		problems:      live.problems,
	}
	if n := len(live.samples); n < minSamples {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d latency samples, fewer than %d", w.name, n, minSamples))
	}
	r.problems = append(r.problems, validate(w, r.perLayer)...)
	r.correct = len(r.problems) == 0 && r.failed == 0
	return r, nil
}

// setupReps is how many times an end-to-end run sets up: setup_s is
// their median, which is steadier than one set-up.
const setupReps = 3

// printResult prints every metric by name and unit, then the result
// line the acceptance driver reads: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func printResult(r *runResult, traced bool) {
	fmt.Printf("# workload %s\n", r.workload)
	section := func(title string, ms []metric) {
		for _, m := range ms {
			fmt.Printf("%-14s %-28s %16.4f %-7s (n=%d)\n", title, m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	section("end_to_end", r.endToEnd)
	section("per_layer", r.perLayer)
	section("informational", r.informational)
	for i, p := range r.problems {
		if i == 10 {
			fmt.Printf("FAILED CHECK   ... and %d more\n", len(r.problems)-10)
			break
		}
		fmt.Printf("FAILED CHECK   %s\n", p)
	}
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(ms))}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Printf("%s\n", b)
}
