package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/server"
)

// liveSnapshot drives locked, snapshot-read and DORA traffic so every
// group of the snapshot has something to show.
func liveSnapshot(t *testing.T) server.StatsJSON {
	t.Helper()
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 2})
	defer d.Close()
	for i := uint64(0); i < 20; i++ {
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
		if err := d.ExecSingle(dora.Action{Table: tbl, Key: i, Fn: func(tx *core.Txn) error {
			_, err := tx.Read(tbl, i)
			return err
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return server.Snapshot(e, nil)
}

// A SET's value reaches the server byte for byte — runs of spaces, tabs
// and trailing blanks included — and a blank line is a usage error.
func TestSetSendsValueVerbatim(t *testing.T) {
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := runOne(c, "CREATE kv"); err != nil {
		t.Fatal(err)
	}
	for key, value := range []string{"a  b", "a\tb", "tail ", "x \t y\t"} {
		if err := runOne(c, fmt.Sprintf("SET\tkv  %d \t%s", key, value)); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Get("kv", uint64(key)); err != nil || got != value {
			t.Fatalf("SET %q stored %q, %v", value, got, err)
		}
	}
	for _, blank := range []string{"", "  ", "\t"} {
		if err := runOne(c, blank); err == nil || !strings.HasPrefix(err.Error(), "usage") {
			t.Fatalf("runOne(%q) = %v, want a usage error", blank, err)
		}
	}
}

// TestPrintStatsShowsEveryCounter walks the snapshot's JSON, not the
// metric plan: every number of every group must be on the screen as
// key=value, every distribution as its summary, and the derived figures
// and tables must still be there.
func TestPrintStatsShowsEveryCounter(t *testing.T) {
	st := liveSnapshot(t)
	var out bytes.Buffer
	printStats(&out, st)
	text := out.String()

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	// Printed in their own formats, not as key=value.
	own := map[string]bool{"uptime_sec": true, "incidents": true, "window_ns": true}
	var check func(obj map[string]any)
	check = func(obj map[string]any) {
		for k, v := range obj {
			switch x := v.(type) {
			case json.Number:
				if want := k + "=" + x.String(); !own[k] && !strings.Contains(text, want) {
					t.Errorf("STATS FULL output lacks %s", want)
				}
			case map[string]any:
				if sum, ok := x["summary"].(string); ok {
					if x["count"].(json.Number) != "0" && !strings.Contains(text, sum) {
						t.Errorf("STATS FULL output lacks the %s distribution", k)
					}
				} else {
					check(x)
				}
			}
		}
	}
	check(doc)
	for _, want := range []string{"buffer hit=", "records/flush", "writes/flush", "% recycled", "% single-partition",
		"latch tiers", "phase profile", "conv/commit", "slow txns", "queue_depths=[0 0]"} {
		if !strings.Contains(text, want) {
			t.Errorf("STATS FULL output lacks %q", want)
		}
	}
}

// The REPL's help lists every verb of the server's grammar table, one
// line each, with its arguments.
func TestHelpListsEveryVerb(t *testing.T) {
	var out bytes.Buffer
	printHelp(&out)
	listed := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = line
		}
	}
	for _, v := range server.Verbs() {
		line, ok := listed[v.Name]
		if !ok {
			t.Errorf("help lacks %s:\n%s", v.Name, out.String())
		} else if !strings.Contains(line, v.Usage) || !strings.Contains(line, v.Help) {
			t.Errorf("help line %q lacks %s's usage %q or help %q", line, v.Name, v.Usage, v.Help)
		}
	}
}
