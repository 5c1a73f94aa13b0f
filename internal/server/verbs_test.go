package server

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/core"
)

// Every verb refuses a request with one field more than it takes, or
// one fewer, with its usage line, and the request does nothing: it
// appends no log record, ends no connection, and leaves the session as
// the steps after it show. SET has no most: a field more is value.
func TestEveryVerbRefusesWrongFieldCounts(t *testing.T) {
	type step struct{ line, want string }
	backupTo := filepath.Join(t.TempDir(), "backup.hydra")
	rows := []struct {
		verb  string
		steps []step
	}{
		{"GET", []step{
			{"GET kv 1 junk", "-ERR usage: GET <table> <key>"},
			{"GET kv", "-ERR usage: GET <table> <key>"},
		}},
		{"SET", []step{
			{"SET kv 1", "-ERR usage: SET <table> <key> <value>"},
			{"SET kv 1 \t ", "-ERR usage: SET <table> <key> <value>"},
			{"GET kv 1", "+VALUE one"},
		}},
		{"DEL", []step{
			{"DEL kv 1 2", "-ERR usage: DEL <table> <key>"},
			{"DEL kv", "-ERR usage: DEL <table> <key>"},
			{"GET kv 1", "+VALUE one"},
		}},
		{"SCAN", []step{
			{"SCAN kv 0 10 5 x", "-ERR usage: SCAN <table> <lo> <hi> <max>"},
			{"SCAN kv 0 10", "-ERR usage: SCAN <table> <lo> <hi> <max>"},
		}},
		{"PING", []step{
			{"PING x", "-ERR usage: PING"},
		}},
		{"QUIT", []step{
			{"QUIT now", "-ERR usage: QUIT"},
			{"PING", "+PONG"},
		}},
		{"BEGIN", []step{
			{"BEGIN READ ONLY", "-ERR usage: BEGIN"},
			{"SET kv 1 two", "+OK"}, // autocommitted
			{"COMMIT", "-ERR no transaction"},
			{"GET kv 1", "+VALUE two"},
		}},
		{"COMMIT", []step{
			{"BEGIN", "+OK"},
			{"SET kv 1 two", "+OK"},
			{"COMMIT now", "-ERR usage: COMMIT"},
			{"BEGIN", "-ERR transaction already open"},
			{"ABORT", "+OK"},
			{"GET kv 1", "+VALUE one"},
		}},
		{"ABORT", []step{
			{"BEGIN", "+OK"},
			{"SET kv 1 two", "+OK"},
			{"ABORT now", "-ERR usage: ABORT"},
			{"COMMIT", "+OK"},
			{"GET kv 1", "+VALUE two"},
		}},
		{"CREATE", []step{
			{"CREATE t2 x", "-ERR usage: CREATE <table>"},
			{"CREATE", "-ERR usage: CREATE <table>"},
			{"GET t2 1", "-ERR core: no such table: t2"},
		}},
		{"CHECKPOINT", []step{
			{"CHECKPOINT x", "-ERR usage: CHECKPOINT"},
		}},
		{"BACKUP", []step{
			{"BACKUP " + backupTo + " x", "-ERR usage: BACKUP <server-side-path>"},
			{"BACKUP", "-ERR usage: BACKUP <server-side-path>"},
			{"BACKUP " + backupTo, "+OK"}, // nothing was written there before
		}},
		{"STATS", []step{
			{"STATS FULL x", "-ERR usage: STATS [FULL]"},
			{"STATS foo", "-ERR usage: STATS [FULL]"},
		}},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.verb] = true
		t.Run(row.verb, func(t *testing.T) {
			var out bytes.Buffer
			c := memConn(t, &out)
			if got := reply(c, &out, "SET kv 1 one"); got != replyOK {
				t.Fatalf("SET kv 1 one: %q", got)
			}
			for _, s := range row.steps {
				inserts := c.engine.StatsSnapshot().Log.Inserts
				out.Reset()
				quit := c.dispatch([]byte(s.line))
				c.w.Flush()
				if got := strings.TrimSuffix(out.String(), "\n"); got != s.want {
					t.Fatalf("%q: reply %q, want %q", s.line, got, s.want)
				}
				if strings.HasPrefix(s.want, "-ERR usage: ") {
					if quit {
						t.Fatalf("%q: refused, but ended the connection", s.line)
					}
					if n := c.engine.StatsSnapshot().Log.Inserts; n != inserts {
						t.Fatalf("%q: refused, but appended %d log records", s.line, n-inserts)
					}
				}
			}
		})
	}
	for _, v := range Verbs() {
		if !covered[v.Name] {
			t.Errorf("no row for %s", v.Name)
		}
	}
}

// BACKUP writes only a file it creates: aimed at the server's own page
// file or log, it is refused, and the database still opens with its
// rows.
func TestBackupNeverOverwrites(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Scalable()
	cfg.Dir = dir
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := New(e).newConn(&out)
	for _, line := range []string{"CREATE kv", "SET kv 1 one", "SET kv 2 two"} {
		if got := reply(c, &out, line); got != replyOK {
			e.Close()
			t.Fatalf("%s: %q", line, got)
		}
	}
	for _, name := range []string{"pages.db", "wal.log"} {
		path := filepath.Join(dir, name)
		if got, want := reply(c, &out, "BACKUP "+path), "-ERR open "+path+": file exists\n"; got != want {
			t.Errorf("BACKUP onto %s: %q, want %q", name, got, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = core.Open(cfg)
	if err != nil {
		t.Fatalf("reopen after the refused backups: %v", err)
	}
	defer e.Close()
	c = New(e).newConn(&out)
	for _, tc := range []struct{ line, want string }{
		{"GET kv 1", "+VALUE one\n"},
		{"GET kv 2", "+VALUE two\n"},
	} {
		if got := reply(c, &out, tc.line); got != tc.want {
			t.Errorf("%s after reopening: %q, want %q", tc.line, got, tc.want)
		}
	}
}
