// Package server exposes the storage manager over TCP with a small
// line-oriented text protocol, so the engine can serve the scale-out
// role the keynote's title gestures at. One goroutine per connection;
// each connection may run explicit transactions or autocommit.
//
// Protocol (requests are single lines, space separated):
//
//	PING                         -> +PONG
//	CREATE <table>               -> +OK
//	SET <table> <key> <value...> -> +OK          (value = rest of line)
//	GET <table> <key>            -> +VALUE <value> | -ERR not found
//	DEL <table> <key>            -> +OK
//	SCAN <table> <lo> <hi> <max> -> +ROW <key> <value> ... +END
//	BEGIN / COMMIT / ABORT       -> +OK          (explicit transaction)
//	CHECKPOINT                   -> +OK          (fuzzy checkpoint)
//	BACKUP <path>                -> +OK          (online backup to a server-side file)
//	STATS                        -> +VALUE <counters>
//	STATS FULL                   -> +VALUE <one-line JSON snapshot>
//	QUIT                         -> +BYE, closes the connection
//
// A client may pipeline: send a batch of requests without waiting and
// read the replies, which come back in order, afterwards. The server
// writes replies out when it has no further complete request buffered,
// so a batch costs about one write per read, and a request sent alone
// one of each. A line may be up to 1 MiB long.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriter(conn)
	defer w.Flush() // whatever was answered before the connection ends
	var txn *core.Txn
	defer func() {
		if txn != nil {
			txn.Abort()
		}
	}()
	var long []byte // a line longer than r's buffer is assembled here
	for {
		// Flush on drain: replies leave in one write(2) when the next
		// read could block, that is, when no further complete request
		// is buffered. A pipelined batch is answered in as few writes as
		// it took reads; a lone request still costs one read, one write.
		if buffered, _ := r.Peek(r.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
			if err := w.Flush(); err != nil {
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
				return // as a Scanner with that limit did: the connection ends
			}
			line = long
		}
		// At end of input a last line without its newline still counts.
		if len(line) > 0 {
			reply, quit := s.dispatch(string(bytes.TrimRight(line, "\r\n")), &txn)
			w.WriteString(reply) // a write error is sticky: Flush reports it
			w.WriteByte('\n')
			if quit {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// maxLine is the longest request line a connection may send.
const maxLine = 1024 * 1024

// dispatch executes one command line and returns the reply (which may
// contain embedded newlines for multi-row responses).
func (s *Server) dispatch(line string, txn **core.Txn) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "-ERR empty command", false
	}
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "PING":
		return "+PONG", false
	case "QUIT":
		return "+BYE", true
	case "CREATE":
		if len(fields) != 2 {
			return "-ERR usage: CREATE <table>", false
		}
		if _, err := s.engine.CreateTable(fields[1]); err != nil {
			return errReply(err), false
		}
		return "+OK", false
	case "BEGIN":
		if *txn != nil {
			return "-ERR transaction already open", false
		}
		*txn = s.engine.Begin()
		return "+OK", false
	case "COMMIT":
		if *txn == nil {
			return "-ERR no transaction", false
		}
		tx := *txn
		*txn = nil
		if err := tx.Commit(); err != nil {
			// A failed commit leaves the transaction active; without
			// this abort its locks, its active entry and its
			// log-truncation horizon would outlive the connection. The
			// client is told why the COMMIT failed, not how the abort went.
			_ = tx.Abort()
			return errReply(err), false
		}
		return "+OK", false
	case "ABORT":
		if *txn == nil {
			return "-ERR no transaction", false
		}
		err := (*txn).Abort()
		*txn = nil
		if err != nil {
			return errReply(err), false
		}
		return "+OK", false
	case "CHECKPOINT":
		if err := s.engine.Checkpoint(); err != nil {
			return errReply(err), false
		}
		return "+OK", false
	case "BACKUP":
		if len(fields) != 2 {
			return "-ERR usage: BACKUP <server-side-path>", false
		}
		f, err := os.Create(fields[1])
		if err != nil {
			return errReply(err), false
		}
		if err := s.engine.Backup(f); err != nil {
			f.Close()
			return errReply(err), false
		}
		if err := f.Close(); err != nil {
			return errReply(err), false
		}
		return "+OK", false
	case "STATS":
		if len(fields) == 2 && strings.ToUpper(fields[1]) == "FULL" {
			// One-line JSON so the line protocol stays line-oriented.
			b, err := json.Marshal(Snapshot(s.engine, s.fr))
			if err != nil {
				return errReply(err), false
			}
			return "+VALUE " + string(b), false
		}
		st := s.engine.StatsSnapshot()
		return fmt.Sprintf("+VALUE commits=%d aborts=%d lock_acquires=%d log_inserts=%d buf_hits=%d buf_misses=%d",
			st.Commits, st.Aborts, st.Lock.Acquires, st.Log.Inserts, st.Buffer.Hits, st.Buffer.Misses), false
	case "SET", "GET", "DEL", "SCAN":
		return s.data(cmd, fields, txn), false
	default:
		return fmt.Sprintf("-ERR unknown command %q", cmd), false
	}
}

func (s *Server) data(cmd string, fields []string, txn **core.Txn) string {
	if len(fields) < 3 {
		return "-ERR missing table/key"
	}
	tbl, err := s.engine.Table(fields[1])
	if err != nil {
		return errReply(err)
	}
	key, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return "-ERR bad key"
	}

	// Run within the open transaction, or autocommit. Autocommitted
	// reads say so: the engine then serves a wire GET/SCAN from an MVCC
	// snapshot with zero lock-manager traffic when it has one, and
	// under IS/S locks when it does not.
	run := func(fn func(tx *core.Txn) error) error {
		if *txn != nil {
			return fn(*txn)
		}
		return s.engine.Exec(fn, core.Intent{ReadOnly: cmd == "GET" || cmd == "SCAN"})
	}

	switch cmd {
	case "SET":
		if len(fields) < 4 {
			return "-ERR usage: SET <table> <key> <value>"
		}
		val := []byte(strings.Join(fields[3:], " "))
		err := run(func(tx *core.Txn) error {
			err := tx.Update(tbl, key, val)
			if errors.Is(err, core.ErrNotFound) {
				return tx.Insert(tbl, key, val)
			}
			return err
		})
		if err != nil {
			return errReply(err)
		}
		return "+OK"
	case "GET":
		var val []byte
		err := run(func(tx *core.Txn) error {
			v, err := tx.Read(tbl, key)
			val = v
			return err
		})
		if err != nil {
			return errReply(err)
		}
		return "+VALUE " + string(val)
	case "DEL":
		if err := run(func(tx *core.Txn) error { return tx.Delete(tbl, key) }); err != nil {
			return errReply(err)
		}
		return "+OK"
	case "SCAN":
		if len(fields) != 5 {
			return "-ERR usage: SCAN <table> <lo> <hi> <max>"
		}
		hi, err1 := strconv.ParseUint(fields[3], 10, 64)
		max, err2 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || max <= 0 {
			return "-ERR bad range"
		}
		var sb strings.Builder
		err := run(func(tx *core.Txn) error {
			n := 0
			return tx.Scan(tbl, key, hi, func(k uint64, v []byte) bool {
				fmt.Fprintf(&sb, "+ROW %d %s\n", k, v)
				n++
				return n < max
			})
		})
		if err != nil {
			return errReply(err)
		}
		return sb.String() + "+END"
	}
	return "-ERR unreachable"
}

func errReply(err error) string {
	return "-ERR " + strings.ReplaceAll(err.Error(), "\n", " ")
}
