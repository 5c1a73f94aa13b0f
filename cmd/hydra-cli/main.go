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
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/server"
)

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
		if err := runOne(c, strings.Join(args, " ")); err != nil && err != io.EOF {
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
		line := in.Text()
		switch strings.ToLower(strings.TrimSpace(line)) {
		case "":
			continue
		case "help":
			printHelp(os.Stdout)
			continue
		case "exit":
			return
		}
		start := time.Now()
		err := runOne(c, line)
		elapsed := time.Since(start).Round(time.Microsecond)
		switch err {
		case nil:
			fmt.Printf("(%v)\n", elapsed)
		case io.EOF:
			return
		default:
			fmt.Printf("error: %v (%v)\n", err, elapsed)
		}
	}
}

// printHelp lists the server's verbs from its grammar table, then the
// REPL's own words.
func printHelp(w io.Writer) {
	fmt.Fprintln(w, "commands:")
	for _, v := range server.Verbs() {
		fmt.Fprintf(w, "  %-29s %s\n", v.Name+" "+v.Usage, v.Help)
	}
	fmt.Fprintln(w, "  help | exit")
}

// runOne executes one REPL line. The server's grammar is the only one:
// a line goes to it byte for byte, and its reply — an -ERR usage line
// included — is printed as it comes. SCAN and STATS FULL are the two
// exceptions, because their replies are decoded (rows, a JSON snapshot)
// and printed readably; a SCAN whose numbers do not parse goes through
// verbatim like any other line, and the server refuses it.
func runOne(c *server.Client, line string) error {
	fields := strings.FieldsFunc(line, isSep)
	if len(fields) == 0 {
		return fmt.Errorf("usage: <command> [args...]; 'help' lists the commands")
	}
	switch verb := strings.ToUpper(fields[0]); {
	case verb == "SCAN" && len(fields) == 5:
		lo, err1 := strconv.ParseUint(fields[2], 10, 64)
		hi, err2 := strconv.ParseUint(fields[3], 10, 64)
		max, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil {
			break
		}
		rows, err := c.Scan(fields[1], lo, hi, max)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%12d  %q\n", r.Key, r.Value)
		}
		fmt.Printf("%d row(s)\n", len(rows))
		return nil
	case verb == "STATS" && len(fields) == 2 && strings.EqualFold(fields[1], "FULL"):
		st, err := c.StatsFull()
		if err != nil {
			return err
		}
		printStats(os.Stdout, st)
		return nil
	}
	reply, err := c.Raw(line)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	if reply == "BYE" {
		return io.EOF // the server has closed the connection
	}
	return nil
}

func isSep(r rune) bool { return r == ' ' || r == '\t' }

// printStats renders the full snapshot: every counter of every group
// from the metric walk, the derived ratios, then the distributions the
// walk leaves to tables (latch tiers, phase profile, slow tail).
func printStats(w io.Writer, st server.StatsJSON) {
	fmt.Fprintf(w, "uptime    %s  tracer enabled=%v\n",
		(time.Duration(st.UptimeSec * float64(time.Second))).Round(time.Second), st.TraceEnabled)
	server.WriteGroups(w, &st, nil, 0)
	server.WriteDerived(w, &st)
	if len(st.Latches) > 0 {
		fmt.Fprintln(w, "latch tiers (sampled time-to-acquire)")
		for _, t := range st.Latches {
			fmt.Fprintf(w, "  %-12s ops=%-10d %s\n", t.Tier, t.Ops, t.Acquire.Summary)
		}
	}
	if len(st.Phases) > 0 {
		fmt.Fprintln(w, "phase profile (per path/outcome, critical-path wall time)")
		for _, cell := range st.Phases {
			fmt.Fprintf(w, "  %-20s n=%-10d total %s\n",
				cell.Path+"/"+cell.Outcome, cell.Count, cell.Total.Summary)
			names := make([]string, 0, len(cell.Phase))
			for name := range cell.Phase {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "    %-18s %s\n", name, cell.Phase[name].Summary)
			}
		}
	}
	if st.Slow.Admitted > 0 {
		fmt.Fprintf(w, "slow txns   window=%s retained=%d\n",
			time.Duration(st.Slow.WindowNs).Round(time.Second), len(st.Slow.Entries))
		for i, e := range st.Slow.Entries {
			if i == 5 {
				fmt.Fprintf(w, "  ... %d more\n", len(st.Slow.Entries)-i)
				break
			}
			fmt.Fprintf(w, "  txn=%-10d %s/%s total=%s\n",
				e.Txn, e.Path, e.Outcome, time.Duration(e.TotalNs))
		}
	}
	if st.Incidents > 0 {
		fmt.Fprintf(w, "incidents   %d captured (GET /incidents on the observability port)\n", st.Incidents)
	}
}
