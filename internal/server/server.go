// Package server exposes the storage manager over TCP with a small
// line-oriented text protocol, so the engine can serve the scale-out
// role the keynote's title gestures at. One goroutine per connection;
// each connection may run explicit transactions or autocommit.
//
// A request is one line: a verb and its argument fields. The verbs
// are the rows of the table verbs, and only there: each row gives a
// verb's arguments, how many fields it takes, a line of help with its
// reply, and its handler. dispatch and hydra-cli's help read it.
//
// Grammar. A line ends at "\n" or "\r\n"; the terminator is cut once
// and is no part of the request. Fields are separated by runs of ASCII
// space and tab, and only those: every other byte, U+0085 and U+00A0
// included, is data. Verbs match in either case. A request with more
// or fewer fields than its verb takes does nothing and is answered
// "-ERR usage: <VERB> <arguments>". A SET's value starts
// at the first byte after the key that is not a separator and runs to
// the end of the line, byte for byte: "SET kv 1 a  b " stores "a  b ",
// the spaces inside and the one at the end with it. (A value that
// itself ends in a carriage return therefore needs the "\r\n"
// terminator, and no value can hold a line feed until values are
// length-prefixed.) A line may be up to 1 MiB long, terminator
// included; a longer one is answered "-ERR line too long" and ends the
// connection. A row must still fit a page.
//
// Transactions. BEGIN opens an explicit transaction on the connection;
// requests outside one autocommit. Both run under two-phase locking
// (GET and SCAN without locks, on a snapshot, when the server runs with
// -mvcc). A transaction that comes to its 64th row of a table and finds
// nobody else on the table trades its row locks for a table lock and
// holds it until COMMIT or ABORT: other connections' requests on that
// table wait for it. Found in company, it keeps to row locks.
//
// A client may pipeline: send a batch of requests without waiting and
// read the replies, which come back in order, afterwards. The server
// writes replies out when it has no further complete request buffered,
// so a batch costs about one write per read, and a request sent alone
// one of each.
//
// The request path works on the bytes of the connection's read buffer:
// no string is built from the line, the fields are slices of it, and a
// reply is appended to the connection's write buffer (DESIGN.md, "The
// wire path").
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hydra/internal/core"
)

// Server serves engine over a listener.
type Server struct {
	engine *core.Engine
	fr     *FlightRecorder // optional; feeds STATS FULL incident counts

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New returns a server over e.
func New(e *core.Engine) *Server {
	return &Server{engine: e, conns: make(map[net.Conn]struct{})}
}

// SetFlightRecorder attaches a running stall flight recorder so STATS
// FULL reports incident counts. Call before Serve.
func (s *Server) SetFlightRecorder(fr *FlightRecorder) { s.fr = fr }

// Serve accepts connections until Close. It returns after the
// listener fails or is closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound address (after Serve starts).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes live connections, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(nc net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	c := s.newConn(nc)
	defer c.w.Flush() // whatever was answered before the connection ends
	defer c.close()
	r := bufio.NewReaderSize(nc, 64*1024)
	var long []byte // a line longer than r's buffer is assembled here
	for {
		// Flush on drain: replies leave in one write(2) when the next
		// read could block, that is, when no further complete request
		// is buffered. A pipelined batch is answered in as few writes as
		// it took reads; a lone request still costs one read, one write.
		if buffered, _ := r.Peek(r.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
			if err := c.w.Flush(); err != nil {
				return
			}
		}
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxLine {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			if len(long) > maxLine {
				c.w.WriteString("-ERR line too long\n")
				return // the rest of the line is not read: the connection ends
			}
			line = long
		}
		// At end of input a last line without its newline still counts.
		// A write error is sticky: Flush reports it.
		if len(line) > 0 && c.dispatch(trimEOL(line)) {
			return
		}
		if err != nil {
			return
		}
	}
}

// maxLine is the longest request line a connection may send.
const maxLine = 1024 * 1024

// trimEOL cuts the line terminator, "\n" or "\r\n", once: a value may
// itself end in a carriage return.
func trimEOL(line []byte) []byte {
	n := len(line)
	if n == 0 || line[n-1] != '\n' {
		return line
	}
	if n > 1 && line[n-2] == '\r' {
		return line[:n-2]
	}
	return line[:n-1]
}

// Verb is one row of the wire grammar.
type Verb struct {
	Name  string // upper case; a request's verb matches it in either case
	Usage string // the argument fields, as the usage error and the help show them
	// min and max bound the number of argument fields. A negative max
	// leaves the count open: the min-th field is then the rest of the
	// line, byte for byte (SET's value).
	min, max int
	Help     string // one line: what the verb does and what it answers
	run      func(c *conn, a fields) error
}

// The rows' indices, for code that names a verb: the Client.
const (
	verbGet = iota
	verbSet
	verbDel
	verbScan
	verbPing
	verbQuit
	verbBegin
	verbCommit
	verbAbort
	verbCreate
	verbCheckpoint
	verbBackup
	verbStats
)

// verbs is the wire grammar: every verb, its arguments and its
// handler. It is the only place a verb is named.
var verbs = [...]Verb{
	verbGet:        {"GET", "<table> <key>", 2, 2, "read a row: +VALUE <value>", (*conn).get},
	verbSet:        {"SET", "<table> <key> <value>", 3, -1, "insert or update a row; the value is the rest of the line", (*conn).set},
	verbDel:        {"DEL", "<table> <key>", 2, 2, "delete a row", (*conn).del},
	verbScan:       {"SCAN", "<table> <lo> <hi> <max>", 4, 4, "up to <max> rows with <lo> <= key <= <hi>: +ROW <key> <value> ... +END", (*conn).scan},
	verbPing:       {"PING", "", 0, 0, "answer +PONG", func(c *conn, _ fields) error { c.w.WriteString("+PONG\n"); return nil }},
	verbQuit:       {"QUIT", "", 0, 0, "answer +BYE and close the connection", func(c *conn, _ fields) error { c.w.WriteString("+BYE\n"); return errQuit }},
	verbBegin:      {"BEGIN", "", 0, 0, "open an explicit transaction on this connection", (*conn).begin},
	verbCommit:     {"COMMIT", "", 0, 0, "commit the open transaction", func(c *conn, _ fields) error { return c.end(true) }},
	verbAbort:      {"ABORT", "", 0, 0, "roll back the open transaction", func(c *conn, _ fields) error { return c.end(false) }},
	verbCreate:     {"CREATE", "<table>", 1, 1, "create a table", func(c *conn, a fields) error { _, err := c.engine.CreateTable(string(a[0])); return c.ok(err) }},
	verbCheckpoint: {"CHECKPOINT", "", 0, 0, "take a fuzzy checkpoint", func(c *conn, _ fields) error { return c.ok(c.engine.Checkpoint()) }},
	verbBackup:     {"BACKUP", "<server-side-path>", 1, 1, "write an online backup to a new file on the server", (*conn).backup},
	verbStats:      {"STATS", "[FULL]", 0, 1, "engine counters on one line; FULL: the whole snapshot as one line of JSON", (*conn).stats},
}

// Verbs returns the rows of the wire grammar, in table order.
func Verbs() []Verb { return slices.Clone(verbs[:]) }

// fields are a request's argument fields as dispatch cut them, slices
// of its line; those past the request's count are empty. No verb takes
// more than SCAN's four.
type fields [4][]byte

// A handler answers its request and returns nil, or returns what
// dispatch is to answer: errUsage its verb's usage line, errQuit
// nothing (the reply is written, and the connection ends), and any
// other error an -ERR line.
var errUsage, errQuit = errors.New("usage"), errors.New("quit")

const replyOK = "+OK\n"

// conn is one connection's session: what the verb layer knows of it.
// A request line and every field cut from it alias the transport's read
// buffer: they are valid until the next read from the connection, and
// nothing here or below keeps one — the engine copies what it stores.
type conn struct {
	engine *core.Engine
	fr     *FlightRecorder // optional, as in Server
	w      *bufio.Writer
	txn    *core.Txn // the open explicit transaction, or nil (autocommit)
	rows   []byte    // a SCAN's rows, built while the scan holds its latches
}

// newConn returns a session whose replies go to w.
func (s *Server) newConn(w io.Writer) *conn {
	return &conn{
		engine: s.engine,
		fr:     s.fr,
		w:      bufio.NewWriter(w),
	}
}

// close ends the session: an open transaction aborts.
func (c *conn) close() {
	if c.txn != nil {
		c.txn.Abort()
	}
}

// nextField cuts the first field off b: it skips separators (ASCII
// space and tab), returns the bytes up to the next one, and rest with
// the separators after the field skipped too, so that rest starts at
// the next field — or, after a SET's key, is the value.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSep(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSep(b[j]) {
		j++
	}
	k := j
	for k < len(b) && isSep(b[k]) {
		k++
	}
	return b[i:j], b[k:]
}

func isSep(ch byte) bool { return ch == ' ' || ch == '\t' }

// dispatch executes one request line (without its terminator), writes
// the reply into c.w, and reports whether the connection is to end. It
// cuts the verb, folds its case, finds its row and checks the field
// count against it, once: a handler sees only requests of its arity.
func (c *conn) dispatch(line []byte) (quit bool) {
	name, rest := nextField(line)
	if len(name) == 0 {
		c.w.WriteString("-ERR empty command\n")
		return false
	}
	// Verbs are ASCII and match in either case: fold into a stack array.
	// No verb is longer than the array, so a longer field folds to ""
	// and is unknown.
	var up [10]byte
	n := 0
	if len(name) <= len(up) {
		n = copy(up[:], name)
		for i, ch := range up[:n] {
			if 'a' <= ch && ch <= 'z' {
				up[i] = ch - ('a' - 'A')
			}
		}
	}
	var v *Verb
	for i := range verbs {
		if verbs[i].Name == string(up[:n]) {
			v = &verbs[i]
			break
		}
	}
	if v == nil {
		fmt.Fprintf(c.w, "-ERR unknown command %q\n", bytes.ToUpper(name))
		return false
	}
	var a fields
	k := 0
	for ; len(rest) > 0 && k < len(a); k++ {
		if k == v.min-1 && v.max < 0 {
			a[k], rest = rest, nil
		} else {
			a[k], rest = nextField(rest)
		}
	}
	err := errUsage
	if k >= v.min && len(rest) == 0 && (v.max < 0 || k <= v.max) {
		err = v.run(c, a)
	}
	switch err {
	case nil:
	case errQuit:
		return true
	case errUsage:
		c.w.WriteString(strings.TrimSpace("-ERR usage: "+v.Name+" "+v.Usage) + "\n")
	default:
		c.w.WriteString("-ERR ")
		c.w.WriteString(strings.ReplaceAll(err.Error(), "\n", " "))
		c.w.WriteByte('\n')
	}
	return false
}

// ok answers +OK when err is nil, and returns err for dispatch to
// answer otherwise.
func (c *conn) ok(err error) error {
	if err == nil {
		c.w.WriteString(replyOK)
	}
	return err
}

func (c *conn) begin(fields) error {
	if c.txn != nil {
		return errors.New("transaction already open")
	}
	c.txn = c.engine.Begin()
	return c.ok(nil)
}

// end commits or aborts the open transaction.
func (c *conn) end(commit bool) error {
	tx := c.txn
	if tx == nil {
		return errors.New("no transaction")
	}
	c.txn = nil
	if !commit {
		return c.ok(tx.Abort())
	}
	err := tx.Commit()
	if err != nil {
		// A failed commit leaves the transaction active; without this
		// abort its locks and its live-registry entry (a snapshot pin, a
		// first LSN that holds back a checkpoint's analysis start) would
		// outlive the connection. The client is told why the COMMIT
		// failed, not how the abort went.
		_ = tx.Abort()
	}
	return c.ok(err)
}

// backup writes an online backup to a file it creates. A path that
// exists — the server's own page file or log among them — is refused,
// not overwritten, and a backup that fails takes its file with it.
func (c *conn) backup(a fields) error {
	f, err := os.OpenFile(string(a[0]), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	err = c.engine.Backup(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return c.ok(err)
}

func (c *conn) stats(a fields) error {
	switch {
	case len(a[0]) == 0:
		st := c.engine.StatsSnapshot()
		fmt.Fprintf(c.w, "+VALUE commits=%d aborts=%d lock_acquires=%d log_inserts=%d buf_hits=%d buf_misses=%d\n",
			st.Commits, st.Aborts, st.Lock.Acquires, st.Log.Inserts, st.Buffer.Hits, st.Buffer.Misses)
	case bytes.EqualFold(a[0], []byte("FULL")):
		// One-line JSON so the line protocol stays line-oriented.
		b, err := json.Marshal(Snapshot(c.engine, c.fr))
		if err != nil {
			return err
		}
		c.w.WriteString("+VALUE ")
		c.w.Write(b)
		c.w.WriteByte('\n')
	default:
		return errUsage
	}
	return nil
}

// target resolves the table and key that open every data verb's
// fields.
func (c *conn) target(a fields) (*core.Table, uint64, error) {
	tbl, err := c.engine.Table(string(a[0]))
	if err != nil {
		return nil, 0, err
	}
	key, err := strconv.ParseUint(string(a[1]), 10, 64)
	if err != nil {
		return nil, 0, errors.New("bad key")
	}
	return tbl, key, nil
}

// exec runs fn within the open transaction, or autocommits it.
// Autocommitted reads say so: the engine then serves a wire GET/SCAN
// from an MVCC snapshot with zero lock-manager traffic when it has one,
// and under IS/S locks when it does not.
func (c *conn) exec(readOnly bool, fn func(tx *core.Txn) error) error {
	if c.txn != nil {
		return fn(c.txn)
	}
	return c.engine.Exec(fn, core.Intent{ReadOnly: readOnly})
}

func (c *conn) get(a fields) error {
	tbl, key, err := c.target(a)
	if err != nil {
		return err
	}
	var val []byte
	err = c.exec(true, func(tx *core.Txn) error {
		v, err := tx.Read(tbl, key)
		val = v
		return err
	})
	if err != nil {
		return err
	}
	c.w.WriteString("+VALUE ")
	c.w.Write(val)
	c.w.WriteByte('\n')
	return nil
}

// set upserts. The value is the rest of the line, byte for byte, and
// reaches the engine as a slice of the read buffer.
func (c *conn) set(a fields) error {
	tbl, key, err := c.target(a)
	if err != nil {
		return err
	}
	val := a[2]
	return c.ok(c.exec(false, func(tx *core.Txn) error {
		err := tx.Update(tbl, key, val)
		if errors.Is(err, core.ErrNotFound) {
			return tx.Insert(tbl, key, val)
		}
		return err
	}))
}

func (c *conn) del(a fields) error {
	tbl, key, err := c.target(a)
	if err != nil {
		return err
	}
	return c.ok(c.exec(false, func(tx *core.Txn) error { return tx.Delete(tbl, key) }))
}

func (c *conn) scan(a fields) error {
	tbl, lo, err := c.target(a)
	if err != nil {
		return err
	}
	hi, err1 := strconv.ParseUint(string(a[2]), 10, 64)
	max, err2 := strconv.Atoi(string(a[3]))
	if err1 != nil || err2 != nil || max <= 0 {
		return errors.New("bad range")
	}
	// The rows are built in memory and written after the scan: its
	// callback runs under the index's latches, where a write to a slow
	// client must not block, and a scan that fails part-way answers
	// with the error alone.
	rows := c.rows
	err = c.exec(true, func(tx *core.Txn) error {
		rows = rows[:0] // here, not above: Exec may run fn again
		n := 0
		return tx.Scan(tbl, lo, hi, func(k uint64, v []byte) bool {
			rows = append(rows, "+ROW "...)
			rows = strconv.AppendUint(rows, k, 10)
			rows = append(rows, ' ')
			rows = append(rows, v...)
			rows = append(rows, '\n')
			n++
			return n < max
		})
	})
	if cap(rows) <= maxLine {
		c.rows = rows // keep the space, unless one large scan grew it
	}
	if err != nil {
		return err
	}
	c.w.Write(rows)
	c.w.WriteString("+END\n")
	return nil
}
