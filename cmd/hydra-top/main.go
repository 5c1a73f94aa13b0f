// Command hydra-top is a live contention monitor for a running
// hydra-server: it polls the /stats endpoint and redraws a compact
// per-subsystem view — throughput, buffer hit ratio, group-commit
// batch size, and the per-latch-tier time-to-acquire tails that are
// the paper's leading indicator of a scalability pathology.
//
// Usage:
//
//	hydra-top [-addr localhost:7655] [-interval 1s] [-once]
//
// Rates (commits/s, etc.) are derived from successive cumulative
// snapshots; the first frame therefore shows totals only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"hydra/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7655", "observability address of hydra-server (-http)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "print a single frame and exit (no ANSI redraw)")
	flag.Parse()

	url := "http://" + *addr + "/stats"
	client := &http.Client{Timeout: 5 * time.Second}

	var prev *server.StatsJSON
	var prevAt time.Time
	for {
		st, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydra-top: %v\n", err)
			os.Exit(1)
		}
		now := time.Now()
		if !*once {
			// Clear screen and home the cursor: a full redraw per
			// frame keeps the renderer stateless.
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(os.Stdout, st, prev, now.Sub(prevAt))
		if *once {
			return
		}
		prev = st
		prevAt = now
		time.Sleep(*interval)
	}
}

func fetch(c *http.Client, url string) (*server.StatsJSON, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var st server.StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// render draws one frame: every counter of every group from the metric
// walk (with its rate once there is a previous frame), the derived
// ratios, then the latch, phase and slow tables.
func render(w io.Writer, st, prev *server.StatsJSON, dt time.Duration) {
	fmt.Fprintf(w, "hydra-top  up %s  trace=%v\n\n",
		(time.Duration(st.UptimeSec * float64(time.Second))).Round(time.Second), st.TraceEnabled)
	server.WriteGroups(w, st, prev, dt)
	server.WriteDerived(w, st)

	fmt.Fprintf(w, "\n%-12s %10s  %9s %9s %9s %9s\n",
		"latch tier", "acquires", "p50", "p90", "p99", "max")
	fmt.Fprintln(w, strings.Repeat("-", 64))
	for _, t := range st.Latches {
		fmt.Fprintf(w, "%-12s %10d  %9s %9s %9s %9s\n",
			t.Tier, t.Ops,
			ns(t.Acquire.P50Ns), ns(t.Acquire.P90Ns), ns(t.Acquire.P99Ns), ns(t.Acquire.MaxNs))
	}

	renderPhases(w, st)
	renderTail(w, st)
}

// renderPhases prints one line per (path, outcome) profile cell: the
// total latency tail plus the top phases by share of accumulated wall
// time. Shares are estimated from mean*count per phase histogram, so
// they are approximate under the factor-of-two bucketing, but they
// answer the triage question — where do these transactions spend time.
func renderPhases(w io.Writer, st *server.StatsJSON) {
	if len(st.Phases) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-20s %10s  %9s %9s %9s  %s\n",
		"phase profile", "txns", "p50", "p99", "max", "top phases by time")
	fmt.Fprintln(w, strings.Repeat("-", 90))
	for _, cell := range st.Phases {
		type share struct {
			name string
			ns   float64
		}
		total := float64(cell.Total.MeanNs) * float64(cell.Total.Count)
		shares := make([]share, 0, len(cell.Phase))
		for name, h := range cell.Phase {
			shares = append(shares, share{name, float64(h.MeanNs) * float64(h.Count)})
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].ns > shares[j].ns })
		var top []string
		for i, s := range shares {
			if i == 3 || s.ns <= 0 {
				break
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * s.ns / total
			}
			top = append(top, fmt.Sprintf("%s %.0f%%", s.name, pct))
		}
		fmt.Fprintf(w, "%-20s %10d  %9s %9s %9s  %s\n",
			cell.Path+"/"+cell.Outcome, cell.Count,
			ns(cell.Total.P50Ns), ns(cell.Total.P99Ns), ns(cell.Total.MaxNs),
			strings.Join(top, "  "))
	}
}

// renderTail prints the worst-K slow-transaction reservoir (top few
// entries with their dominant phase) and the incident count from the
// stall flight recorder.
func renderTail(w io.Writer, st *server.StatsJSON) {
	if st.Slow.Admitted > 0 && len(st.Slow.Entries) > 0 {
		fmt.Fprintf(w, "\nslow    window=%s  worst:\n", time.Duration(st.Slow.WindowNs).Round(time.Second))
		for i, e := range st.Slow.Entries {
			if i == 5 {
				break
			}
			dom, domNs := "", int64(0)
			for name, v := range e.Phase {
				if v > domNs {
					dom, domNs = name, v
				}
			}
			detail := ""
			if dom != "" {
				detail = fmt.Sprintf("  (%s %s)", dom, ns(domNs))
			}
			fmt.Fprintf(w, "        txn=%-8d %s/%s %s%s\n",
				e.Txn, e.Path, e.Outcome, ns(e.TotalNs), detail)
		}
	}
	if st.Incidents > 0 {
		fmt.Fprintf(w, "\nINCIDENTS %d captured — inspect /incidents on the observability port\n",
			st.Incidents)
	}
}

// ns renders a nanosecond figure compactly (the bucket resolution is
// a factor of two, so sub-microsecond precision would be noise).
func ns(v int64) string {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", v)
}
