package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hydra/internal/core"
	"hydra/internal/invariant"
	"hydra/internal/page"
)

// memConn returns a connection's state over an in-memory engine with
// the table kv, its replies going to out: dispatch without a socket.
func memConn(t testing.TB, out io.Writer) *conn {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	return New(e).newConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), out})
}

// reply runs one request line through dispatch and returns what it
// wrote.
func reply(c *conn, out *bytes.Buffer, line string) string {
	out.Reset()
	c.dispatch([]byte(line))
	c.w.Flush()
	return out.String()
}

// A SET's value is the rest of the line after the separators that
// follow the key, byte for byte: runs of spaces, tabs, a trailing space
// and bytes that were separators to strings.Fields all come back as
// they were sent.
func TestValueRoundTripsVerbatim(t *testing.T) {
	client, _ := servePipe(t)
	if got, err := pipeline(client, "CREATE kv\n", 1); err != nil || got[0] != "+OK" {
		t.Fatalf("CREATE: %q, %v", got, err)
	}
	const header = "SET kv 7 "
	// With header and "\n" the line is exactly maxLine bytes, most of it
	// the separators before the value: longer than the read buffer, so
	// it is assembled in conn.long.
	padded := strings.Repeat(" ", maxLine-len(header)-1-4) + "a  b"
	for _, tc := range []struct{ name, value string }{
		{"double space", "a  b"},
		{"tab", "a\tb"},
		{"trailing space", "a b "},
		{"trailing tab", "ab\t"},
		{"looks like a verb", "GET kv 7"},
		{"carriage return inside", "a\rb"},
		{"carriage return at the end", "ab\r"}, // needs the \r\n terminator
		{"U+0085 and U+00A0", "a\u0085b\u00a0c"},
		{"vertical tab and form feed", "a\vb\fc"},
		{"the largest row a page holds", strings.Repeat("x  ", (page.MaxRecordSize-8)/3)},
		{"the longest line", padded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, eol := range []string{"\n", "\r\n"} {
				if len(header)+len(tc.value)+len(eol) > maxLine || strings.HasSuffix(tc.value, "\r") && eol == "\n" {
					continue
				}
				want := "+VALUE " + strings.TrimLeft(tc.value, " ")
				got, err := pipeline(client, header+tc.value+eol+"GET kv 7"+eol, 2)
				if err != nil || len(got) != 2 || got[0] != "+OK" {
					t.Fatalf("terminator %q: replies %.40q, %v", eol, got, err)
				}
				if got[1] != want {
					t.Fatalf("terminator %q: sent %.40q (%d bytes), read back %.47q (%d bytes with +VALUE)",
						eol, tc.value, len(tc.value), got[1], len(got[1]))
				}
			}
		})
	}
	// A line of the longest length that is all value reaches the engine
	// whole; no page holds such a row, and the connection stays in step.
	got, _ := pipeline(client, header+strings.Repeat("x", maxLine-len(header)-1)+"\nGET kv 7\n", 2)
	if want := "-ERR page: record exceeds maximum size|+VALUE a  b"; strings.Join(got, "|") != want {
		t.Fatalf("a value of the longest line: replies %.60q, want %q", got, want)
	}
	// Separators before the value are not part of it, and a line of
	// separators after the key carries no value.
	got, _ = pipeline(client, "set\tkv  7 \t v\nGET kv 7\nSET kv 7 \t \n", 3)
	if want := "+OK|+VALUE v|-ERR usage: SET <table> <key> <value>"; strings.Join(got, "|") != want {
		t.Fatalf("separators around the value: replies %q, want %q", got, want)
	}
}

// What a request costs the server outside the engine: a GET of a
// 100-byte row, an in-place SET and BEGIN, SET, COMMIT through dispatch
// with the replies discarded allocate exactly what the engine calls
// they make allocate when made directly — the wire path adds nothing —
// and that is pinned too (the parent commit: 8 per request, 3 of them
// the server's). What remains is the lock manager's two grants and two
// release slices per transaction and the row copy a read returns (or
// the update's log callback).
func TestWireAllocationsPinned(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("hydradebug assertions allocate; the race detector makes the handle pool lossy")
	}
	c := memConn(t, io.Discard)
	e := c.engine
	tbl, err := e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	value := []byte(strings.Repeat("v", 100))
	set := append([]byte("SET kv 1 "), value...)
	get := []byte("GET kv 1")
	begin, commit := []byte("BEGIN"), []byte("COMMIT")
	c.dispatch(set)
	upsert := func(tx *core.Txn) error {
		err := tx.Update(tbl, 1, value)
		if errors.Is(err, core.ErrNotFound) {
			return tx.Insert(tbl, 1, value)
		}
		return err
	}
	for _, tc := range []struct {
		name         string
		wire, engine func()
	}{
		{"autocommit GET",
			func() { c.dispatch(get) },
			func() {
				e.Exec(func(tx *core.Txn) error { _, err := tx.Read(tbl, 1); return err }, core.Intent{ReadOnly: true})
			}},
		{"autocommit SET in place",
			func() { c.dispatch(set) },
			func() { e.Exec(upsert) }},
		{"BEGIN, SET, COMMIT",
			func() { c.dispatch(begin); c.dispatch(set); c.dispatch(commit) },
			func() { tx := e.Begin(); upsert(tx); tx.Commit() }},
	} {
		wire, engine := testing.AllocsPerRun(500, tc.wire), testing.AllocsPerRun(500, tc.engine)
		if wire != engine || wire > 5 {
			t.Errorf("%s: %v allocations through dispatch, %v for the engine calls alone; want them equal and <= 5", tc.name, wire, engine)
		}
	}
}

// The -ERR line for a missing key is the parent commit's, byte for
// byte, although core no longer formats it until asked.
func TestMissingKeyReplyGolden(t *testing.T) {
	var out bytes.Buffer
	c := memConn(t, &out)
	for _, tc := range []struct{ line, want string }{
		{"GET kv 5", "-ERR core: key not found: table kv key 5\n"},
		{"DEL kv 18446744073709551615", "-ERR core: key not found: table kv key 18446744073709551615\n"},
		{"BEGIN", "+OK\n"},
		{"GET kv 5", "-ERR core: key not found: table kv key 5\n"},
		{"DEL kv 5", "-ERR core: key not found: table kv key 5\n"},
		{"SET kv 5 v", "+OK\n"}, // the miss inside SET is not an error
		{"COMMIT", "+OK\n"},
		{"GET nope 5", "-ERR core: no such table: nope\n"},
	} {
		if got := reply(c, &out, tc.line); got != tc.want {
			t.Errorf("%s: reply %q, want %q", tc.line, got, tc.want)
		}
	}
}

// The client refuses a request that would span lines instead of
// sending it: the server would run what follows the break as a second
// request and every later reply would answer the wrong question.
func TestClientRefusesLineBreaks(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 2, "keep"); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLineBreak) {
			t.Errorf("%s: error %v, want ErrLineBreak", what, err)
		}
	}
	refused("Set, value with a newline", c.Set("kv", 1, "x\nDEL kv 2"))
	refused("Set, value with CR LF", c.Set("kv", 1, "x\r\nDEL kv 2"))
	refused("Set, value ending in CR", c.Set("kv", 1, "x\r"))
	refused("Set, table", c.Set("kv 9 y\nDEL kv", 2, "x"))
	refused("CreateTable", c.CreateTable("t\nDEL kv 2"))
	_, err := c.Raw("PING\nDEL kv 2")
	refused("Raw", err)
	_, err = c.Get("kv\n", 2)
	refused("Get", err)
	refused("Del", c.Del("kv\n", 2))
	_, err = c.Scan("kv\nDEL kv 2\n", 0, 9, 9)
	refused("Scan", err)

	// Nothing was sent: the second request did not run, nothing was
	// written, and the connection still answers in step.
	if v, err := c.Get("kv", 2); err != nil || v != "keep" {
		t.Fatalf("key 2 after the refused requests: %q, %v", v, err)
	}
	if _, err := c.Get("kv", 1); err == nil {
		t.Fatal("a refused Set wrote its row")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDispatch is the server's share of a request: GET and SET
// through dispatch with the replies discarded, and load500, the bulk
// loader's BEGIN; 500 x SET of a new 1000-byte row; COMMIT through
// handle over a pipe — the in-package twin of the benchmark's setup_s.
func BenchmarkDispatch(b *testing.B) {
	request := func(name, line string) {
		b.Run(name, func(b *testing.B) {
			c := memConn(b, io.Discard)
			c.dispatch([]byte("SET kv 1 " + strings.Repeat("v", 100)))
			req := []byte(line)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.dispatch(req)
			}
		})
	}
	request("GET", "GET kv 1")
	request("SET100", "SET kv 1 "+strings.Repeat("v", 100))
	request("SET1000", "SET kv 1 "+strings.Repeat("v", 1000))

	b.Run("load500", func(b *testing.B) {
		e, err := core.Open(core.Scalable())
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		if _, err := e.CreateTable("kv"); err != nil {
			b.Fatal(err)
		}
		client, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			New(e).handle(srv)
		}()
		defer func() {
			client.Close()
			<-done
		}()
		client.SetDeadline(time.Now().Add(5 * time.Minute))
		const rows = 500
		value := strings.Repeat("v", 1000)
		replies := bufio.NewReader(client)
		var batch bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			batch.WriteString("BEGIN\n")
			for k := i * rows; k < (i+1)*rows; k++ {
				fmt.Fprintf(&batch, "SET kv %d %s\n", k, value)
			}
			batch.WriteString("COMMIT\n")
			sent := make(chan error, 1)
			go func() {
				_, err := client.Write(batch.Bytes())
				sent <- err
			}()
			for n := 0; n < rows+2; n++ {
				if line, err := replies.ReadString('\n'); err != nil || line != "+OK\n" {
					b.Fatalf("reply %d of batch %d: %q, %v", n, i, line, err)
				}
			}
			if err := <-sent; err != nil {
				b.Fatal(err)
			}
		}
	})
}
