// Package server exposes the storage manager over TCP with a small
// line-oriented text protocol, so the engine can serve the scale-out
// role the keynote's title gestures at. One goroutine per connection;
// each connection may run explicit transactions or autocommit.
//
// Protocol (one request per line):
//
//	PING                         -> +PONG
//	CREATE <table>               -> +OK
//	SET <table> <key> <value>    -> +OK          (value = rest of line)
//	GET <table> <key>            -> +VALUE <value> | -ERR ... not found
//	DEL <table> <key>            -> +OK
//	SCAN <table> <lo> <hi> <max> -> +ROW <key> <value> ... +END
//	BEGIN / COMMIT / ABORT       -> +OK          (explicit transaction)
//	CHECKPOINT                   -> +OK          (fuzzy checkpoint)
//	BACKUP <path>                -> +OK          (online backup to a server-side file)
//	STATS                        -> +VALUE <counters>
//	STATS FULL                   -> +VALUE <one-line JSON snapshot>
//	QUIT                         -> +BYE, closes the connection
//
// Grammar. A line ends at "\n" or "\r\n"; the terminator is cut once
// and is no part of the request. Fields are separated by runs of ASCII
// space and tab, and only those: every other byte, U+0085 and U+00A0
// included, is data. Verbs match in either case. A SET's value starts
// at the first byte after the key that is not a separator and runs to
// the end of the line, byte for byte: "SET kv 1 a  b " stores "a  b ",
// the spaces inside and the one at the end with it. (A value that
// itself ends in a carriage return therefore needs the "\r\n"
// terminator, and no value can hold a line feed until values are
// length-prefixed.) A line may be up to 1 MiB long, terminator included;
// a row must still fit a page.
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

// conn is one connection's state. A request line and every field cut
// from it alias the read buffer (or long): they are valid until the
// next read from the connection, and nothing here or below keeps one —
// the engine copies what it stores.
type conn struct {
	engine *core.Engine
	fr     *FlightRecorder // optional, as in Server
	r      *bufio.Reader
	w      *bufio.Writer
	txn    *core.Txn // the open explicit transaction, or nil (autocommit)
	long   []byte    // a line longer than r's buffer is assembled here
	rows   []byte    // a SCAN's rows, built while the scan holds its latches
	// tables memoises the catalog by name, so resolving a request's
	// table costs a map probe with no string built (tables are never
	// dropped, so an entry cannot go stale).
	tables map[string]*core.Table
}

func (s *Server) newConn(rw io.ReadWriter) *conn {
	return &conn{
		engine: s.engine,
		fr:     s.fr,
		r:      bufio.NewReaderSize(rw, 64*1024),
		w:      bufio.NewWriter(rw),
		tables: make(map[string]*core.Table),
	}
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
	defer func() {
		if c.txn != nil {
			c.txn.Abort()
		}
	}()
	r := c.r
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
			c.long = append(c.long[:0], line...)
			for err == bufio.ErrBufferFull && len(c.long) <= maxLine {
				line, err = r.ReadSlice('\n')
				c.long = append(c.long, line...)
			}
			if len(c.long) > maxLine {
				return // as a Scanner with that limit did: the connection ends
			}
			line = c.long
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

// Replies used more than once; every reply ends its line.
const (
	replyOK    = "+OK\n"
	replyNoTxn = "-ERR no transaction\n"
)

// dispatch executes one request line (without its terminator), writes
// the reply into c.w, and reports whether the connection is to end.
func (c *conn) dispatch(line []byte) (quit bool) {
	verb, rest := nextField(line)
	if len(verb) == 0 {
		c.w.WriteString("-ERR empty command\n")
		return false
	}
	// Verbs are ASCII and match in either case: fold into a stack array
	// and switch on it. No verb is longer than the array, so a longer
	// field folds to "" and is unknown.
	var up [10]byte
	n := 0
	if len(verb) <= len(up) {
		n = copy(up[:], verb)
		for i, ch := range up[:n] {
			if 'a' <= ch && ch <= 'z' {
				up[i] = ch - ('a' - 'A')
			}
		}
	}
	switch string(up[:n]) {
	case "GET":
		c.get(rest)
	case "SET":
		c.set(rest)
	case "DEL":
		c.del(rest)
	case "SCAN":
		c.scan(rest)
	case "PING":
		c.w.WriteString("+PONG\n")
	case "QUIT":
		c.w.WriteString("+BYE\n")
		return true
	case "BEGIN":
		if c.txn != nil {
			c.w.WriteString("-ERR transaction already open\n")
			break
		}
		c.txn = c.engine.Begin()
		c.w.WriteString(replyOK)
	case "COMMIT":
		if c.txn == nil {
			c.w.WriteString(replyNoTxn)
			break
		}
		tx := c.txn
		c.txn = nil
		err := tx.Commit()
		if err != nil {
			// A failed commit leaves the transaction active; without
			// this abort its locks and its live-registry entry (a
			// snapshot pin, a first LSN that holds back a checkpoint's
			// analysis start) would outlive the connection. The
			// client is told why the COMMIT failed, not how the abort went.
			_ = tx.Abort()
		}
		c.done(err)
	case "ABORT":
		if c.txn == nil {
			c.w.WriteString(replyNoTxn)
			break
		}
		tx := c.txn
		c.txn = nil
		c.done(tx.Abort())
	case "CREATE":
		name, more := nextField(rest)
		if len(name) == 0 || len(more) != 0 {
			c.w.WriteString("-ERR usage: CREATE <table>\n")
			break
		}
		_, err := c.engine.CreateTable(string(name))
		c.done(err)
	case "CHECKPOINT":
		c.done(c.engine.Checkpoint())
	case "BACKUP":
		path, more := nextField(rest)
		if len(path) == 0 || len(more) != 0 {
			c.w.WriteString("-ERR usage: BACKUP <server-side-path>\n")
			break
		}
		c.done(c.backup(string(path)))
	case "STATS":
		c.stats(rest)
	default:
		fmt.Fprintf(c.w, "-ERR unknown command %q\n", bytes.ToUpper(verb))
	}
	return false
}

// done writes the reply of a request that answers +OK or the error.
func (c *conn) done(err error) {
	if err != nil {
		c.fail(err)
		return
	}
	c.w.WriteString(replyOK)
}

// fail writes err as an -ERR line.
func (c *conn) fail(err error) {
	c.w.WriteString("-ERR ")
	c.w.WriteString(strings.ReplaceAll(err.Error(), "\n", " "))
	c.w.WriteByte('\n')
}

func (c *conn) backup(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.engine.Backup(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (c *conn) stats(rest []byte) {
	if arg, more := nextField(rest); len(more) == 0 && bytes.EqualFold(arg, []byte("FULL")) {
		// One-line JSON so the line protocol stays line-oriented.
		b, err := json.Marshal(Snapshot(c.engine, c.fr))
		if err != nil {
			c.fail(err)
			return
		}
		c.w.WriteString("+VALUE ")
		c.w.Write(b)
		c.w.WriteByte('\n')
		return
	}
	st := c.engine.StatsSnapshot()
	fmt.Fprintf(c.w, "+VALUE commits=%d aborts=%d lock_acquires=%d log_inserts=%d buf_hits=%d buf_misses=%d\n",
		st.Commits, st.Aborts, st.Lock.Acquires, st.Log.Inserts, st.Buffer.Hits, st.Buffer.Misses)
}

// target cuts the table and key that open every data verb's arguments
// and resolves them. When ok is false the error reply has been written.
func (c *conn) target(args []byte) (tbl *core.Table, key uint64, rest []byte, ok bool) {
	name, rest := nextField(args)
	keyField, rest := nextField(rest)
	if len(keyField) == 0 {
		c.w.WriteString("-ERR missing table/key\n")
		return nil, 0, nil, false
	}
	tbl = c.tables[string(name)]
	if tbl == nil {
		var err error
		if tbl, err = c.engine.Table(string(name)); err != nil {
			c.fail(err)
			return nil, 0, nil, false
		}
		c.tables[tbl.Name] = tbl
	}
	key, err := strconv.ParseUint(string(keyField), 10, 64)
	if err != nil {
		c.w.WriteString("-ERR bad key\n")
		return nil, 0, nil, false
	}
	return tbl, key, rest, true
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

func (c *conn) get(args []byte) {
	tbl, key, _, ok := c.target(args)
	if !ok {
		return
	}
	var val []byte
	err := c.exec(true, func(tx *core.Txn) error {
		v, err := tx.Read(tbl, key)
		val = v
		return err
	})
	if err != nil {
		c.fail(err)
		return
	}
	c.w.WriteString("+VALUE ")
	c.w.Write(val)
	c.w.WriteByte('\n')
}

// set upserts. The value is the rest of the line, byte for byte, and
// reaches the engine as a slice of the read buffer.
func (c *conn) set(args []byte) {
	tbl, key, val, ok := c.target(args)
	if !ok {
		return
	}
	if len(val) == 0 {
		c.w.WriteString("-ERR usage: SET <table> <key> <value>\n")
		return
	}
	c.done(c.exec(false, func(tx *core.Txn) error {
		err := tx.Update(tbl, key, val)
		if errors.Is(err, core.ErrNotFound) {
			return tx.Insert(tbl, key, val)
		}
		return err
	}))
}

func (c *conn) del(args []byte) {
	tbl, key, _, ok := c.target(args)
	if !ok {
		return
	}
	c.done(c.exec(false, func(tx *core.Txn) error { return tx.Delete(tbl, key) }))
}

func (c *conn) scan(args []byte) {
	tbl, lo, rest, ok := c.target(args)
	if !ok {
		return
	}
	hiField, rest := nextField(rest)
	maxField, rest := nextField(rest)
	if len(maxField) == 0 || len(rest) != 0 {
		c.w.WriteString("-ERR usage: SCAN <table> <lo> <hi> <max>\n")
		return
	}
	hi, err1 := strconv.ParseUint(string(hiField), 10, 64)
	max, err2 := strconv.Atoi(string(maxField))
	if err1 != nil || err2 != nil || max <= 0 {
		c.w.WriteString("-ERR bad range\n")
		return
	}
	// The rows are built in memory and written after the scan: its
	// callback runs under the index's latches, where a write to a slow
	// client must not block, and a scan that fails part-way answers
	// with the error alone.
	rows := c.rows
	err := c.exec(true, func(tx *core.Txn) error {
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
		c.fail(err)
		return
	}
	c.w.Write(rows)
	c.w.WriteString("+END\n")
}
