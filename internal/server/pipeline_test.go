package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/core"
)

// countingConn counts the Write calls the handler makes: over a socket,
// each is a write(2).
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// servePipe runs the connection handler over one end of an in-memory
// pipe and returns the other end: a read on the handler's side takes as
// much of a client write as its buffer holds, and a connection the
// handler ends early reads as replies, then EOF (no TCP reset).
func servePipe(t *testing.T) (net.Conn, *countingConn) {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	client, srv := net.Pipe()
	counted := &countingConn{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		New(e).handle(counted)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
		e.Close()
	})
	client.SetDeadline(time.Now().Add(10 * time.Second))
	return client, counted
}

// pipeline sends the whole of batch at once and returns the reply lines
// read until want of them have arrived or the server has ended the
// connection, and the error of the send.
func pipeline(conn net.Conn, batch string, want int) ([]string, error) {
	sent := make(chan error, 1)
	go func() {
		_, err := io.WriteString(conn, batch)
		sent <- err
	}()
	var replies []string
	r := bufio.NewReader(conn)
	for len(replies) < want {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		replies = append(replies, strings.TrimRight(line, "\n"))
	}
	return replies, <-sent
}

// A pipelined batch is answered in order, and its replies leave when
// the handler has drained its read buffer: as many writes as the reply
// bytes fill the 4 KiB write buffer, plus the flush at the end — not
// one per request. A request with nothing behind it still costs one.
func TestPipelinedBatchIsAnsweredInFewWrites(t *testing.T) {
	client, counted := servePipe(t)

	const rows = 300
	var batch strings.Builder
	want := []string{"+OK", "+OK"}
	batch.WriteString("CREATE kv\nBEGIN\n")
	for k := 0; k < rows; k++ {
		fmt.Fprintf(&batch, "SET kv %d value-of-%d\r\n", k, k)
		want = append(want, "+OK")
	}
	batch.WriteString("COMMIT\n")
	want = append(want, "+OK")
	for k := 0; k < rows; k++ {
		fmt.Fprintf(&batch, "GET kv %d\n", k)
		want = append(want, fmt.Sprintf("+VALUE value-of-%d", k))
	}
	if batch.Len() >= 64*1024 {
		t.Fatalf("the batch is %d bytes: it must reach the handler in one read", batch.Len())
	}

	got, err := pipeline(client, batch.String(), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("replies out of order or missing:\n got %q\nwant %q", got, want)
	}
	replyBytes := len(strings.Join(want, "\n")) + 1
	if writes, most := counted.writes.Load(), int64((replyBytes+4095)/4096+1); writes > most {
		t.Fatalf("%d requests answered in %d writes of %d bytes in all, want at most %d", len(want), writes, replyBytes, most)
	}

	before := counted.writes.Load()
	if got, err := pipeline(client, "PING\n", 1); err != nil || len(got) != 1 || got[0] != "+PONG" {
		t.Fatalf("PING after the batch: %q, %v", got, err)
	}
	if writes := counted.writes.Load() - before; writes != 1 {
		t.Fatalf("a lone request was answered in %d writes, want 1", writes)
	}
}

// A client may wait for the reply to one request with half of the next
// already sent: the half line must not hold the reply back.
func TestHalfLineDoesNotHoldBackReply(t *testing.T) {
	client, _ := servePipe(t)
	for _, step := range []string{"PING\nPI", "NG\nPIN", "G\n"} {
		if got, err := pipeline(client, step, 1); err != nil || len(got) != 1 || got[0] != "+PONG" {
			t.Fatalf("after sending %q: replies %q, %v", step, got, err)
		}
	}
}

// QUIT ends the connection where it stands in a batch: what preceded
// it is answered, what follows is not. So does a line over the 1 MiB
// limit, once it is answered "-ERR line too long", while one longer
// than the read buffer but within the limit is served.
func TestBatchEndsAtQuitOrOverlongLine(t *testing.T) {
	for _, tc := range []struct {
		name, batch string
		want        []string
	}{
		{"quit", "PING\nPING\nQUIT\nPING\n", []string{"+PONG", "+PONG", "+BYE"}},
		{"long line", "PING\nPING" + strings.Repeat(" ", 200*1024) + "\r\nGIBBERISH\nQUIT\n", []string{"+PONG", "+PONG", `-ERR unknown command "GIBBERISH"`, "+BYE"}},
		{"line at the limit", "PING" + strings.Repeat(" ", maxLine-5) + "\nQUIT\n", []string{"+PONG", "+BYE"}},
		{"line over the limit", "PING\nPING" + strings.Repeat(" ", maxLine-4) + "\nPING\n", []string{"+PONG", "-ERR line too long"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _ := servePipe(t)
			// The send fails where the server stopped reading.
			got, _ := pipeline(client, tc.batch, len(tc.want)+1)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("replies %q, want %q and then the end of the connection", got, tc.want)
			}
		})
	}
}

// At end of input a last line without its newline is still a request.
func TestLastLineWithoutNewlineIsServed(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "PING\nPING"); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil || string(reply) != "+PONG\n+PONG\n" {
		t.Fatalf("replies %q, %v", reply, err)
	}
}
