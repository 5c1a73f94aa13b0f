package main

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/page"
)

// damagedCatalog creates table users in a fresh data directory, closes
// the engine, lets damage rewrite the meta page's record in place and
// returns the path of pages.db.
func damagedCatalog(t *testing.T, damage func(rec []byte, p *page.Page)) string {
	t.Helper()
	cfg := core.Scalable()
	cfg.Dir = t.TempDir()
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Dir, "pages.db")
	store, err := buffer.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var p page.Page
	if err := store.ReadPage(0, &p); err != nil {
		t.Fatal(err)
	}
	rec, err := p.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	damage(rec, &p)
	if err := store.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	return path
}

// A damaged catalog is reported as an error, never a panic: the tool
// decodes the meta record with the engine's own bounds-checked decoder.
func TestDamagedCatalogIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(rec []byte, p *page.Page)
	}{
		{"over-counted", func(rec []byte, _ *page.Page) {
			binary.LittleEndian.PutUint32(rec[8:], 1000) // one table is there
		}},
		{"truncated", func(rec []byte, p *page.Page) {
			// master(8), count(4), then only part of the entry's fixed
			// 14 bytes.
			if err := p.Update(0, rec[:8+4+10]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := damagedCatalog(t, tc.damage)
			err := run(path, false, "")
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("run = %v, want a truncated-catalog error", err)
			}
		})
	}
}

// A fuzzy checkpoint writes page 0 alone, so a live pages.db can name a
// table whose heap head it does not hold yet. The dump reports that
// page as not written yet, goes on with the next table, and succeeds.
func TestDumpTableNotWrittenYet(t *testing.T) {
	cfg := core.Scalable()
	cfg.Dir = t.TempDir()
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, name := range []string{"users", "orders"} {
		tbl, err := e.CreateTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("alice")) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(filepath.Join(cfg.Dir, "pages.db"), true, "")
	})
	if err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	if got := strings.Count(out, "not written yet"); got != 2 {
		t.Fatalf("%d tables reported not written yet, want 2; output:\n%s", got, out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	return <-read, err
}
