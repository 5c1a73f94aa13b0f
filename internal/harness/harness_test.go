package harness

import (
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunWorkersCountsOps(t *testing.T) {
	var calls atomic.Uint64
	ops, dur, err := RunWorkers(4, 50*time.Millisecond, func(int) error {
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops == 0 || ops != calls.Load() || ops%batch != 0 {
		t.Fatalf("counted %d ops for %d calls (batch %d)", ops, calls.Load(), batch)
	}
	if dur < 50*time.Millisecond {
		t.Fatalf("elapsed %v below window", dur)
	}
}

func TestRunWorkersPropagatesError(t *testing.T) {
	ops, _, err := RunWorkers(2, 20*time.Millisecond, func(w int) error {
		if w == 1 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v", err)
	}
	if ops == 0 {
		t.Fatal("the worker without errors counted no ops")
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "test error" }

func TestTablePrint(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "long-column"}}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") || !strings.Contains(out, "333333") {
		t.Fatalf("table output malformed:\n%s", out)
	}
}

func TestFFormat(t *testing.T) {
	if F(12.3) != "12.3" || F(12300) != "12.3k" || F(12_300_000) != "12.30M" {
		t.Fatalf("F formats: %s %s %s", F(12.3), F(12300), F(12_300_000))
	}
}

func TestFindRegistry(t *testing.T) {
	if _, err := Find("e4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find accepted unknown id")
	}
}

// Every registered id eN has a "## EN " section in EXPERIMENTS.md, and
// that section names the command that regenerates it, "hydra-bench eN".
func TestEveryIDNamesItsSection(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{} // "E15" -> the section's text
	for _, sec := range strings.Split("\n"+string(doc), "\n## ")[1:] {
		if id, _, ok := strings.Cut(sec, " "); ok {
			sections[id] = sec
		}
	}
	for _, exp := range All() {
		sec, ok := sections[strings.ToUpper(exp.ID)]
		if !ok {
			t.Errorf("%s: EXPERIMENTS.md has no section ## %s", exp.ID, strings.ToUpper(exp.ID))
			continue
		}
		if !regexp.MustCompile(`hydra-bench ` + exp.ID + `\b`).MatchString(sec) {
			t.Errorf("%s: section %s does not name hydra-bench %s", exp.ID, strings.ToUpper(exp.ID), exp.ID)
		}
	}
}

// Every experiment must run end-to-end at Quick scale and produce a
// non-empty report. This is the integration test of the whole stack.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds each")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			rep, err := exp.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(rep.Tab) == 0 || len(rep.Tab[0].Rows) == 0 {
				t.Fatalf("%s produced an empty report", exp.ID)
			}
			if rep.ID != strings.ToUpper(exp.ID) {
				t.Fatalf("%s reports as %s", exp.ID, rep.ID)
			}
			var sb strings.Builder
			rep.Fprint(&sb)
			if !strings.Contains(sb.String(), rep.ID+":") {
				t.Fatalf("%s report print malformed", exp.ID)
			}
			t.Logf("\n%s", sb.String())
		})
	}
}
