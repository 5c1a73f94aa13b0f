// Command hydra-cli is an interactive client for hydra-server: a
// small REPL over the text protocol with help, timing, and history-
// free line editing (plain stdin).
//
// Usage:
//
//	hydra-cli [-addr localhost:7654] [command...]
//
// With arguments, runs the single command and exits (scripting mode):
//
//	hydra-cli -addr :7654 SET users 1 ada
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/server"
)

const replHelp = `commands:
  CREATE <table>                create a table
  SET <table> <key> <value...>  upsert a row (autocommit or in txn)
  GET <table> <key>             read a row
  DEL <table> <key>             delete a row
  SCAN <table> <lo> <hi> <max>  range scan
  BEGIN | COMMIT | ABORT        explicit transaction on this connection
  CHECKPOINT                    take a fuzzy checkpoint
  STATS                         engine counters (one line)
  STATS FULL | stats            full snapshot: counters, latch tiers,
                                lock-wait tail, tracer state
  help | quit`

func main() {
	addr := flag.String("addr", "localhost:7654", "server address")
	flag.Parse()

	c, err := server.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydra-cli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := runOne(c, strings.Join(args, " ")); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-cli: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("connected to %s; 'help' for commands\n", *addr)
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("hydra> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch strings.ToLower(line) {
		case "":
			continue
		case "help":
			fmt.Println(replHelp)
			continue
		case "quit", "exit":
			return
		}
		start := time.Now()
		err := runOne(c, line)
		elapsed := time.Since(start).Round(time.Microsecond)
		if err != nil {
			fmt.Printf("error: %v (%v)\n", err, elapsed)
		} else {
			fmt.Printf("(%v)\n", elapsed)
		}
	}
}

// runOne parses and executes one REPL line against the client.
func runOne(c *server.Client, line string) error {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "PING":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Println("PONG")
	case "CREATE":
		if len(fields) != 2 {
			return fmt.Errorf("usage: CREATE <table>")
		}
		if err := c.CreateTable(fields[1]); err != nil {
			return err
		}
		fmt.Println("OK")
	case "SET":
		if len(fields) < 4 {
			return fmt.Errorf("usage: SET <table> <key> <value>")
		}
		key, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad key %q", fields[2])
		}
		if err := c.Set(fields[1], key, strings.Join(fields[3:], " ")); err != nil {
			return err
		}
		fmt.Println("OK")
	case "GET":
		if len(fields) != 3 {
			return fmt.Errorf("usage: GET <table> <key>")
		}
		key, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad key %q", fields[2])
		}
		v, err := c.Get(fields[1], key)
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", v)
	case "DEL":
		if len(fields) != 3 {
			return fmt.Errorf("usage: DEL <table> <key>")
		}
		key, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad key %q", fields[2])
		}
		if err := c.Del(fields[1], key); err != nil {
			return err
		}
		fmt.Println("OK")
	case "SCAN":
		if len(fields) != 5 {
			return fmt.Errorf("usage: SCAN <table> <lo> <hi> <max>")
		}
		lo, err1 := strconv.ParseUint(fields[2], 10, 64)
		hi, err2 := strconv.ParseUint(fields[3], 10, 64)
		max, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad range arguments")
		}
		rows, err := c.Scan(fields[1], lo, hi, max)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%12d  %q\n", r.Key, r.Value)
		}
		fmt.Printf("%d row(s)\n", len(rows))
	case "BEGIN":
		if err := c.Begin(); err != nil {
			return err
		}
		fmt.Println("OK")
	case "COMMIT":
		if err := c.Commit(); err != nil {
			return err
		}
		fmt.Println("OK")
	case "ABORT":
		if err := c.Abort(); err != nil {
			return err
		}
		fmt.Println("OK")
	case "STATS":
		if len(fields) == 2 && strings.ToUpper(fields[1]) == "FULL" {
			st, err := c.StatsFull()
			if err != nil {
				return err
			}
			printStats(st)
			return nil
		}
		s, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Println(s)
	default:
		// Pass anything else through verbatim (e.g. CHECKPOINT).
		reply, err := c.Raw(line)
		if err != nil {
			return err
		}
		fmt.Println(reply)
	}
	return nil
}

// printStats renders the full snapshot the way the harness tables do:
// counters grouped by subsystem, distributions as p50/p90/p99/max.
func printStats(st server.StatsJSON) {
	fmt.Printf("uptime      %s\n", (time.Duration(st.UptimeSec * float64(time.Second))).Round(time.Second))
	fmt.Printf("txns        commits=%d aborts=%d\n", st.Commits, st.Aborts)
	fmt.Printf("lock        acquires=%d table_ops=%d inherited=%d waits=%d\n",
		st.Lock.Acquires, st.Lock.TableOps, st.Lock.Inherited, st.Lock.Waits)
	fmt.Printf("            deadlocks=%d timeouts=%d upgrades=%d escalations=%d\n",
		st.Lock.Deadlocks, st.Lock.Timeouts, st.Lock.Upgrades, st.Lock.Escalations)
	fmt.Printf("lock heads  allocs=%d recycles=%d retires=%d heat_evictions=%d\n",
		st.Lock.HeadAllocs, st.Lock.HeadRecycles, st.Lock.HeadRetires, st.Lock.HeatEvictions)
	if st.LockWait.Count > 0 {
		fmt.Printf("lock wait   %s\n", st.LockWait.Summary)
	}
	fmt.Printf("log         inserts=%d bytes=%d flushes=%d mutex_acquires=%d group_inserts=%d\n",
		st.Log.Inserts, st.Log.InsertedBytes, st.Log.Flushes, st.Log.MutexAcquires, st.Log.GroupInserts)
	if st.Log.Flushes > 0 {
		fmt.Printf("            group-commit batch=%.1f records/flush\n",
			float64(st.Log.Inserts)/float64(st.Log.Flushes))
		fmt.Printf("            flush IO: writes=%d syncs=%d (%.2f writes/flush)\n",
			st.Log.FlushWrites, st.Log.FlushSyncs,
			float64(st.Log.FlushWrites)/float64(st.Log.Flushes))
		fmt.Printf("            flush cause: demand=%d pressure=%d tick=%d\n",
			st.Log.FlushesDemand, st.Log.FlushesPressure, st.Log.FlushesTick)
	}
	if st.Log.DevWrites > 0 || st.Log.DevSyncs > 0 {
		fmt.Printf("log device  writes=%d vec_writes=%d syncs=%d seg_syncs=%d seg_sync_skips=%d extends=%d\n",
			st.Log.DevWrites, st.Log.DevVecWrites, st.Log.DevSyncs,
			st.Log.DevSegSyncs, st.Log.DevSegSyncSkips, st.Log.DevExtends)
	}
	hitPct := 0.0
	if tot := st.Buffer.Hits + st.Buffer.Misses; tot > 0 {
		hitPct = 100 * float64(st.Buffer.Hits) / float64(tot)
	}
	fmt.Printf("buffer      hits=%d misses=%d (%.2f%% hit) evictions=%d writebacks=%d\n",
		st.Buffer.Hits, st.Buffer.Misses, hitPct, st.Buffer.Evictions, st.Buffer.Writebacks)
	if st.Dora.SinglePartition+st.Dora.CrossPartition > 0 {
		fmt.Printf("dora        actions=%d single=%d cross=%d rvps=%d local_waits=%d timeouts=%d\n",
			st.Dora.ActionsExecuted, st.Dora.SinglePartition, st.Dora.CrossPartition,
			st.Dora.RendezvousCrossed, st.Dora.LocalWaits, st.Dora.Timeouts)
		fmt.Printf("            batches=%d jobs=%d service %s\n",
			st.Dora.Batches, st.Dora.BatchedJobs, st.Dora.Service.Summary)
	}
	if st.Mvcc.SnapshotBegins > 0 || st.Mvcc.Installs > 0 {
		fmt.Printf("mvcc        snapshots=%d reads=%d chain_reads=%d lock_bypasses=%d\n",
			st.Mvcc.SnapshotBegins, st.Mvcc.SnapshotReads, st.Mvcc.ChainReads, st.Lock.Bypasses)
		fmt.Printf("            installs=%d live_nodes=%d gc_nodes=%d sweeps=%d floor=%d active=%d\n",
			st.Mvcc.Installs, st.Mvcc.LiveNodes, st.Mvcc.GCNodes, st.Mvcc.GCSweeps,
			st.Mvcc.SnapshotFloor, st.Mvcc.ActiveSnapshots)
		fmt.Printf("            si_begins=%d si_commits=%d si_conflict_aborts=%d snapshots_expired=%d\n",
			st.Mvcc.SIBegins, st.Mvcc.SICommits, st.Mvcc.SIConflictAborts, st.Mvcc.SnapshotsExpired)
	}
	if len(st.Latches) > 0 {
		fmt.Println("latch tiers (sampled time-to-acquire)")
		for _, t := range st.Latches {
			fmt.Printf("  %-12s ops=%-10d %s\n", t.Tier, t.Ops, t.Acquire.Summary)
		}
	}
	if len(st.Phases) > 0 {
		fmt.Println("phase profile (per path/outcome, critical-path wall time)")
		for _, cell := range st.Phases {
			fmt.Printf("  %-20s n=%-10d total %s\n",
				cell.Path+"/"+cell.Outcome, cell.Count, cell.Total.Summary)
			names := make([]string, 0, len(cell.Phase))
			for name := range cell.Phase {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("    %-18s %s\n", name, cell.Phase[name].Summary)
			}
		}
	}
	if st.Slow.Admitted > 0 {
		fmt.Printf("slow txns   admitted=%d rotated=%d window=%s retained=%d\n",
			st.Slow.Admitted, st.Slow.Rotated,
			time.Duration(st.Slow.WindowNs).Round(time.Second), len(st.Slow.Entries))
		for i, e := range st.Slow.Entries {
			if i == 5 {
				fmt.Printf("  ... %d more\n", len(st.Slow.Entries)-i)
				break
			}
			fmt.Printf("  txn=%-10d %s/%s total=%s\n",
				e.Txn, e.Path, e.Outcome, time.Duration(e.TotalNs))
		}
	}
	if st.Incidents > 0 {
		fmt.Printf("incidents   %d captured (GET /incidents on the observability port)\n", st.Incidents)
	}
	fmt.Printf("tracer      enabled=%v events=%d\n", st.TraceEnabled, st.TraceEvents)
}
