package server

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// fieldsOracle is the request grammar as the handler read it before the
// byte tokeniser: strings.Fields over the whole line, the verb
// upper-cased, a SET's value re-joined with single spaces. It is kept
// as the reference FuzzDispatchLine compares the tokeniser with.
func fieldsOracle(line string) (verb, table, key, value string) {
	fields := strings.Fields(line)
	for i, dst := range []*string{&verb, &table, &key} {
		if i < len(fields) {
			*dst = fields[i]
		}
	}
	if len(fields) > 3 {
		value = strings.Join(fields[3:], " ")
	}
	return strings.ToUpper(verb), table, key, value
}

// oracleApplies reports whether the two grammars are meant to agree on
// line: ASCII only (U+0085, U+00A0 and the other Unicode spaces are
// data now, and verbs fold in ASCII only), no separator but space and
// tab (\v, \f and a \r inside the line are data now), and, checked by
// the caller, no run of separators inside the value, which Fields
// collapsed.
func oracleApplies(line []byte) bool {
	for _, ch := range line {
		if ch != ' ' && ch != '\t' && (ch < 0x21 || ch > 0x7e) {
			return false
		}
	}
	return true
}

// seedArgs fills a verb's usage with arguments that parse.
var seedArgs = strings.NewReplacer("<table>", "kv", "<key>", "1", "<value>", "a value with spaces",
	"<lo>", "0", "<hi>", "100", "<max>", "10", "<server-side-path>", "/nonexistent/dir/file", "[FULL]", "FULL")

// rowOf returns the row of the verb as dispatch matches it, folding
// ASCII letters only, or nil.
func rowOf(verb []byte) *Verb {
	up := []byte(string(verb))
	for i, ch := range up {
		if 'a' <= ch && ch <= 'z' {
			up[i] = ch - ('a' - 'A')
		}
	}
	for _, v := range Verbs() {
		if v.Name == string(up) {
			return &v
		}
	}
	return nil
}

// FuzzDispatchLine feeds arbitrary lines to the tokeniser and to
// dispatch. The fields must agree with the Fields-based oracle wherever
// the grammar did not change; dispatch must not panic, must leave the
// line's bytes alone, must not look beyond the line into the buffer it
// is a slice of, and must answer every request but SCAN with exactly
// one line — a request with more or fewer fields than its verb's row
// allows with the verb's usage line. The seeds are every verb of the
// table at its arity and with a field more, and the edge lines of
// pipeline_test.go and wire_test.go.
func FuzzDispatchLine(f *testing.F) {
	for _, v := range Verbs() {
		line := strings.TrimSpace(v.Name + " " + seedArgs.Replace(v.Usage))
		f.Add([]byte(line))
		f.Add([]byte(line + " extra"))
	}
	for _, seed := range []string{
		"STATS", "stats full", // STATS below its most, and a verb in lower case
		// The edge lines of pipeline_test.go and wire_test.go.
		"SET kv 0 value-of-0\r", "PI", "NG", "GIBBERISH", "PING" + strings.Repeat(" ", 300), "", " ", "\t",
		"SET kv 7 a  b", "SET kv 7 a\tb", "SET kv 7 a b ", "SET kv 7 GET kv 7", "SET kv 7 a\rb", "SET kv 7 ab c", "SET kv 7 a\vb\fc",
		"set\tkv  7 \t v", "SET kv 7 \t ", "SET kv notanumber x", "SET kv 18446744073709551616 x", "SET kv -1 x", "GET nope 1", "GET kv", "SET kv",
		"SCAN kv 0 18446744073709551615 1000", "SCAN kv 0 10", "SCAN kv 0 10 0", "SCAN kv 0 10 +5", "SCAN kv 9 1 5 extra", "get KV 1", "CHECKPOINTS", "pıng",
	} {
		f.Add([]byte(seed))
	}
	var out bytes.Buffer
	c := memConn(f, &out)
	f.Fuzz(func(t *testing.T, data []byte) {
		// What handle would pass on: one line, without its terminator.
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			data = data[:i+1]
		}
		// The line sits inside a larger buffer, as in the connection's
		// read buffer, with the start of another request behind it.
		const next = " 9 next-request\n"
		buf := append(append(make([]byte, 0, len(data)+len(next)), data...), next...)
		line := trimEOL(buf[:len(data)])
		sent, whole := string(line), string(buf)

		verb, rest0 := nextField(line)
		table, rest := nextField(rest0)
		key, value := nextField(rest)
		if oracleApplies(line) {
			overb, otable, okey, ovalue := fieldsOracle(sent)
			if !strings.Contains(string(value), "  ") && !bytes.ContainsRune(value, '\t') && !strings.HasSuffix(string(value), " ") {
				if string(bytes.ToUpper(verb)) != overb || string(table) != otable || string(key) != okey || string(value) != ovalue {
					t.Fatalf("line %q: tokeniser (%q %q %q %q), oracle (%q %q %q %q)", sent, verb, table, key, value, overb, otable, okey, ovalue)
				}
			}
		}
		if len(value) > 0 && &value[len(value)-1] != &line[len(line)-1] {
			t.Fatalf("line %q: the value %q does not run to the end of the line", sent, value)
		}

		// The field count a well-formed request of the verb may have.
		row, count := rowOf(verb), 0
		for rest := rest0; len(rest) > 0; count++ {
			_, rest = nextField(rest)
		}
		refused := row != nil && (count < row.min || row.max >= 0 && count > row.max)
		// BACKUP writes where the line says, and tables are never dropped:
		// let the fuzzer do neither without bound.
		switch strings.ToUpper(string(verb)) {
		case "BACKUP":
			if !refused {
				return
			}
		case "CREATE":
			if len(c.engine.Tables()) >= 16 {
				return
			}
		}
		// Every other input runs inside an explicit transaction.
		if len(data)%2 == 1 {
			c.dispatch([]byte("BEGIN"))
		}
		defer func() {
			if c.txn != nil {
				c.dispatch([]byte("COMMIT"))
			}
		}()
		c.w.Flush()
		out.Reset()
		c.dispatch(line)
		c.w.Flush()
		if string(buf) != whole {
			t.Fatalf("line %q: dispatch changed the buffer from %q to %q", sent, whole, buf)
		}
		got := out.Bytes()
		if len(got) == 0 || got[len(got)-1] != '\n' || (got[0] != '+' && got[0] != '-') {
			t.Fatalf("line %q: reply %q is not a reply line", sent, got)
		}
		if lines := bytes.Count(got, []byte("\n")); lines != 1 && !(strings.EqualFold(string(verb), "SCAN") && bytes.HasSuffix(got, []byte("+END\n"))) {
			t.Fatalf("line %q: a one-line reply of %d lines: %q", sent, lines, got)
		}
		if refused {
			if usage := strings.TrimSpace("-ERR usage: "+row.Name+" "+row.Usage) + "\n"; string(got) != usage {
				t.Fatalf("line %q: %d fields, reply %q, want %q", sent, count, got, usage)
			}
		}
		if bytes.Contains(got, []byte("next-request")) {
			t.Fatalf("line %q: the reply %q holds bytes from beyond the line", sent, got)
		}
		// A well-formed SET is stored as sent.
		if strings.EqualFold(string(verb), "SET") && string(got) == replyOK {
			k, err := strconv.ParseUint(string(key), 10, 64)
			if err != nil {
				t.Fatalf("line %q: +OK for the key %q", sent, key)
			}
			out.Reset()
			c.dispatch(append(append(append([]byte("GET "), table...), ' '), strconv.AppendUint(nil, k, 10)...))
			c.w.Flush()
			if want := "+VALUE " + string(value) + "\n"; out.String() != want {
				t.Fatalf("line %q: reads back %q, want %q", sent, out.String(), want)
			}
		}
	})
}
