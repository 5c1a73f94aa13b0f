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

// rate formats the delta of a cumulative counter as an events/second
// figure, or "-" on the first frame.
func rate(cur, prev uint64, dt time.Duration) string {
	if dt <= 0 || cur < prev {
		return "-"
	}
	return fmt.Sprintf("%.0f/s", float64(cur-prev)/dt.Seconds())
}

func render(w *os.File, st, prev *server.StatsJSON, dt time.Duration) {
	var p server.StatsJSON
	haveRates := prev != nil
	if haveRates {
		p = *prev
	}
	r := func(cur, prv uint64) string {
		if !haveRates {
			return "-"
		}
		return rate(cur, prv, dt)
	}

	fmt.Fprintf(w, "hydra-top  up %s  trace=%v(%d events)\n\n",
		(time.Duration(st.UptimeSec * float64(time.Second))).Round(time.Second),
		st.TraceEnabled, st.TraceEvents)

	fmt.Fprintf(w, "txn     commits=%-10d %-9s aborts=%-8d %-9s\n",
		st.Commits, r(st.Commits, p.Commits), st.Aborts, r(st.Aborts, p.Aborts))

	hitPct := 0.0
	if tot := st.Buffer.Hits + st.Buffer.Misses; tot > 0 {
		hitPct = 100 * float64(st.Buffer.Hits) / float64(tot)
	}
	fmt.Fprintf(w, "buffer  hit=%6.2f%%  fetch=%-9s evict=%-8s writeback=%s\n",
		hitPct, r(st.Buffer.Hits+st.Buffer.Misses, p.Buffer.Hits+p.Buffer.Misses),
		r(st.Buffer.Evictions, p.Buffer.Evictions),
		r(st.Buffer.Writebacks, p.Buffer.Writebacks))

	batch := 0.0
	if st.Log.Flushes > 0 {
		batch = float64(st.Log.Inserts) / float64(st.Log.Flushes)
	}
	fmt.Fprintf(w, "log     insert=%-9s flush=%-9s batch=%.1f rec/flush  group=%d\n",
		r(st.Log.Inserts, p.Log.Inserts), r(st.Log.Flushes, p.Log.Flushes),
		batch, st.Log.GroupInserts)

	// Per-flush syscall budget of the batched flush path: write
	// submissions and fsyncs per flush (vectored target: 1 write per
	// touched segment, fsyncs only for dirty segments).
	wpf, spf := 0.0, 0.0
	if st.Log.Flushes > 0 {
		wpf = float64(st.Log.FlushWrites) / float64(st.Log.Flushes)
		spf = float64(st.Log.DevSegSyncs) / float64(st.Log.Flushes)
	}
	fmt.Fprintf(w, "flushio write=%-9s sync=%-9s %.2f writes/flush  %.2f segsync/flush  skipped=%d\n",
		r(st.Log.DevWrites, p.Log.DevWrites), r(st.Log.DevSegSyncs, p.Log.DevSegSyncs),
		wpf, spf, st.Log.DevSegSyncSkips)
	fmt.Fprintf(w, "flushby demand=%-8s pressure=%-8s tick=%-8s extends=%d\n",
		r(st.Log.FlushesDemand, p.Log.FlushesDemand), r(st.Log.FlushesPressure, p.Log.FlushesPressure),
		r(st.Log.FlushesTick, p.Log.FlushesTick), st.Log.DevExtends)

	fmt.Fprintf(w, "lock    acquire=%-9s wait=%-9s deadlock=%-6d timeout=%-6d escal=%d\n",
		r(st.Lock.Acquires, p.Lock.Acquires), r(st.Lock.Waits, p.Lock.Waits),
		st.Lock.Deadlocks, st.Lock.Timeouts, st.Lock.Escalations)

	// Lock-head lifecycle: a healthy freelist keeps the recycle rate
	// tracking the alloc-path miss rate (allocs stay flat once warm);
	// heat evictions mean distinct-name conflict churn is hitting the
	// bounded heat table's cap.
	recyclePct := 0.0
	if tot := st.Lock.HeadAllocs + st.Lock.HeadRecycles; tot > 0 {
		recyclePct = 100 * float64(st.Lock.HeadRecycles) / float64(tot)
	}
	fmt.Fprintf(w, "lockhead alloc=%-8s recycle=%-8s retire=%-8s %5.1f%% recycled  heatevict=%d\n",
		r(st.Lock.HeadAllocs, p.Lock.HeadAllocs), r(st.Lock.HeadRecycles, p.Lock.HeadRecycles),
		r(st.Lock.HeadRetires, p.Lock.HeadRetires), recyclePct, st.Lock.HeatEvictions)
	if st.LockWait.Count > 0 {
		fmt.Fprintf(w, "        wait dist: %s\n", st.LockWait.Summary)
	}

	// Thread-to-data execution: the single/cross split is the fast-path
	// hit ratio; batch is jobs moved per executor wakeup; depth sums
	// the instantaneous executor backlogs.
	if txns := st.Dora.SinglePartition + st.Dora.CrossPartition; txns > 0 {
		singlePct := 100 * float64(st.Dora.SinglePartition) / float64(txns)
		doraBatch := 0.0
		if st.Dora.Batches > 0 {
			doraBatch = float64(st.Dora.BatchedJobs) / float64(st.Dora.Batches)
		}
		depth := 0
		for _, d := range st.Dora.QueueDepths {
			depth += d
		}
		fmt.Fprintf(w, "dora    action=%-9s single=%5.1f%%  rvp=%-9s waits=%-7d timeout=%-6d batch=%.1f depth=%d\n",
			r(st.Dora.ActionsExecuted, p.Dora.ActionsExecuted), singlePct,
			r(st.Dora.RendezvousCrossed, p.Dora.RendezvousCrossed),
			st.Dora.LocalWaits, st.Dora.Timeouts, doraBatch, depth)
		if st.Dora.Service.Count > 0 {
			fmt.Fprintf(w, "        service: p50=%s p99=%s  inbox wait: p50=%s p99=%s\n",
				ns(st.Dora.Service.P50Ns), ns(st.Dora.Service.P99Ns),
				ns(st.Dora.Wait.P50Ns), ns(st.Dora.Wait.P99Ns))
		}
	}

	// Snapshot reads resolve against version chains without touching
	// the lock manager; bypass tracks the lock requests they skipped.
	// live/active are instantaneous gauges (chain nodes retained,
	// snapshots pinned); oldest is the GC watermark's age.
	if st.Mvcc.SnapshotBegins > 0 || st.Mvcc.Installs > 0 {
		fmt.Fprintf(w, "mvcc    snapread=%-8s chain=%-9s bypass=%-9s install=%-8s live=%-7d gc=%d\n",
			r(st.Mvcc.SnapshotReads, p.Mvcc.SnapshotReads),
			r(st.Mvcc.ChainReads, p.Mvcc.ChainReads),
			r(st.Lock.Bypasses, p.Lock.Bypasses),
			r(st.Mvcc.Installs, p.Mvcc.Installs),
			st.Mvcc.LiveNodes, st.Mvcc.GCNodes)
		if st.Mvcc.ActiveSnapshots > 0 {
			fmt.Fprintf(w, "        snapshots active=%d oldest=%s floor=%d\n",
				st.Mvcc.ActiveSnapshots,
				time.Duration(st.Mvcc.OldestSnapshotAgeNs).Round(time.Millisecond),
				st.Mvcc.SnapshotFloor)
		}
		// SI writers: conflict tracks first-committer-wins losers,
		// expired counts pins cut loose by MaxSnapshotAge.
		if st.Mvcc.SIBegins > 0 || st.Mvcc.SnapshotsExpired > 0 {
			fmt.Fprintf(w, "        si begin=%-9s commit=%-8s conflict=%-8s expired=%d\n",
				r(st.Mvcc.SIBegins, p.Mvcc.SIBegins),
				r(st.Mvcc.SICommits, p.Mvcc.SICommits),
				r(st.Mvcc.SIConflictAborts, p.Mvcc.SIConflictAborts),
				st.Mvcc.SnapshotsExpired)
		}
	}

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
func renderPhases(w *os.File, st *server.StatsJSON) {
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
func renderTail(w *os.File, st *server.StatsJSON) {
	if st.Slow.Admitted > 0 && len(st.Slow.Entries) > 0 {
		fmt.Fprintf(w, "\nslow    admitted=%d rotated=%d window=%s  worst:\n",
			st.Slow.Admitted, st.Slow.Rotated, time.Duration(st.Slow.WindowNs).Round(time.Second))
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
