// Package harness runs the paper-reproduction experiments (see
// DESIGN.md §3; each id is the EXPERIMENTS.md section that reports it)
// and renders their results as the tables/series the underlying
// publications report. cmd/hydra-bench is the one command that runs
// them.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// batch is how many operations a worker runs between looks at the
// stop flag.
const batch = 16

// RunWorkers is one sweep cell: it starts n workers, each calling op
// until d has passed, and returns the number of calls that succeeded
// and the true elapsed time. A worker looks at the stop flag once per
// batch of calls, and stops at its first error, which RunWorkers
// returns.
func RunWorkers(n int, d time.Duration, op func(worker int) error) (uint64, time.Duration, error) {
	var (
		stop  atomic.Uint32
		total atomic.Uint64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var local uint64
			defer func() { total.Add(local) }()
			for stop.Load() == 0 {
				for j := 0; j < batch; j++ {
					if err := op(i); err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						return
					}
					local++
				}
			}
		}(i)
	}
	time.Sleep(d)
	stop.Store(1)
	wg.Wait()
	elapsed := time.Since(start)
	return total.Load(), elapsed, first
}

// microWorkers is the worker count of the micro-mix crossovers (E14,
// E15): GOMAXPROCS, held to [2, 8].
func microWorkers() int { return min(max(runtime.GOMAXPROCS(0), 2), 8) }

// Table is a printable result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Report is one experiment's output.
type Report struct {
	ID    string // "E1" ...
	Title string
	Claim string // which abstract claim it reproduces
	Tab   []*Table
	Notes []string
}

// Fprint renders the full report.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(w, "claim: %s\n\n", r.Claim)
	for _, t := range r.Tab {
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Scale selects experiment sizing.
type Scale int

const (
	// Quick is CI sizing: seconds per experiment.
	Quick Scale = iota
	// Full is report sizing: larger datasets, longer windows,
	// wider thread sweeps.
	Full
)

// Threads returns the thread sweep for the scale.
func (s Scale) Threads() []int {
	if s == Quick {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// Window returns the per-cell measurement duration.
func (s Scale) Window() time.Duration {
	if s == Quick {
		return 150 * time.Millisecond
	}
	return 2 * time.Second
}

// F formats a float compactly.
func F(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}
