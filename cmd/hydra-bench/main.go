// Command hydra-bench regenerates the paper-reproduction experiments
// (DESIGN.md §3) and prints their tables. Experiment eN is reported in
// section EN of EXPERIMENTS.md; -list prints the ids.
//
// Usage:
//
//	hydra-bench [-scale quick|full] [-json out.json] [e1 e2 ...]
//
// With no experiment ids, every experiment runs in order. With -json,
// a machine-readable run document (schema hydra-bench/v1, see
// EXPERIMENTS.md) is written to the given path ("-" for stdout) in
// addition to the human tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hydra/internal/harness"
)

// benchDoc is the top-level -json document: one run of hydra-bench
// with enough environment context to compare runs across machines.
type benchDoc struct {
	Schema      string     `json:"schema"` // "hydra-bench/v1"
	Date        string     `json:"date"`   // RFC 3339, run start
	Scale       string     `json:"scale"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Experiments []benchExp `json:"experiments"`
}

type benchExp struct {
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	Claim      string       `json:"claim"`
	ElapsedSec float64      `json:"elapsed_sec"`
	Tables     []benchTable `json:"tables"`
	Notes      []string     `json:"notes,omitempty"`
}

type benchTable struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment sizing: quick or full")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write a hydra-bench/v1 JSON run document to this path (- for stdout)")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale harness.Scale
	switch *scaleFlag {
	case "quick":
		scale = harness.Quick
	case "full":
		scale = harness.Full
	default:
		fmt.Fprintf(os.Stderr, "hydra-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	ids := flag.Args()
	var exps []harness.Experiment
	if len(ids) == 0 {
		exps = harness.All()
	} else {
		for _, id := range ids {
			e, err := harness.Find(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	fmt.Printf("hydra-bench: %d experiment(s), scale=%s, GOMAXPROCS=%d\n\n",
		len(exps), *scaleFlag, runtime.GOMAXPROCS(0))
	doc := benchDoc{
		Schema:     "hydra-bench/v1",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Scale:      *scaleFlag,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		rep.Fprint(os.Stdout)
		elapsed := time.Since(start)
		fmt.Printf("(%s took %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		doc.Experiments = append(doc.Experiments, benchExp{
			ID: rep.ID, Title: rep.Title, Claim: rep.Claim,
			ElapsedSec: elapsed.Seconds(),
			Tables:     benchTables(rep.Tab),
			Notes:      rep.Notes,
		})
	}
	if *jsonPath != "" {
		if err := writeDoc(*jsonPath, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if *jsonPath != "-" {
			fmt.Printf("hydra-bench: wrote %s\n", *jsonPath)
		}
	}
}

func benchTables(tabs []*harness.Table) []benchTable {
	out := make([]benchTable, 0, len(tabs))
	for _, t := range tabs {
		out = append(out, benchTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	return out
}

func writeDoc(path string, doc *benchDoc) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
