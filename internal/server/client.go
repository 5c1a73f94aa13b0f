package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Client is a minimal client for the text protocol, used by the
// wire example and the tests.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

// Dial connects to a hydra server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, r: bufio.NewScanner(conn), w: bufio.NewWriter(conn)}
	c.r.Buffer(make([]byte, 64*1024), 1024*1024)
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrLineBreak is returned, before anything is sent, for a request
// whose table name, value or raw text holds a line feed or carriage
// return: a request is one line, so the server would run what follows
// the break as a second request and the replies would fall out of step
// with the calls (and a value's final carriage return would be taken
// for part of the terminator).
var ErrLineBreak = errors.New("server: line break in a request")

// send writes one request line and flushes.
func (c *Client) send(cmd string) error {
	if strings.ContainsAny(cmd, "\r\n") {
		return ErrLineBreak
	}
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	return c.w.Flush() // reports an earlier write's error too
}

// roundTrip sends one command and reads a single-line reply.
func (c *Client) roundTrip(cmd string) (string, error) {
	if err := c.send(cmd); err != nil {
		return "", err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("server: connection closed")
	}
	return c.r.Text(), nil
}

// Ping checks liveness.
func (c *Client) Ping() error { return c.simple(verbs[verbPing].Name) }

// CreateTable creates a table.
func (c *Client) CreateTable(name string) error { return c.simple(verbs[verbCreate].Name + " " + name) }

// Set upserts a value.
func (c *Client) Set(table string, key uint64, value string) error {
	return c.simple(fmt.Sprintf("%s %s %d %s", verbs[verbSet].Name, table, key, value))
}

// Get reads a value.
func (c *Client) Get(table string, key uint64) (string, error) {
	return c.value(fmt.Sprintf("%s %s %d", verbs[verbGet].Name, table, key))
}

// Del deletes a key.
func (c *Client) Del(table string, key uint64) error {
	return c.simple(fmt.Sprintf("%s %s %d", verbs[verbDel].Name, table, key))
}

// Row is one SCAN result.
type Row struct {
	Key   uint64
	Value string
}

// Scan returns up to max rows in [lo, hi].
func (c *Client) Scan(table string, lo, hi uint64, max int) ([]Row, error) {
	if err := c.send(fmt.Sprintf("%s %s %d %d %d", verbs[verbScan].Name, table, lo, hi, max)); err != nil {
		return nil, err
	}
	var rows []Row
	for c.r.Scan() {
		line := c.r.Text()
		switch {
		case line == "+END":
			return rows, nil
		case strings.HasPrefix(line, "+ROW "):
			rest := strings.TrimPrefix(line, "+ROW ")
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("server: malformed row %q", line)
			}
			k, err := strconv.ParseUint(rest[:sp], 10, 64)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Key: k, Value: rest[sp+1:]})
		default:
			return nil, fmt.Errorf("server: %s", strings.TrimPrefix(line, "-ERR "))
		}
	}
	return nil, fmt.Errorf("server: connection closed mid-scan")
}

// Begin / Commit / Abort manage an explicit transaction on this
// connection.
func (c *Client) Begin() error { return c.simple(verbs[verbBegin].Name) }

// Commit commits the open transaction.
func (c *Client) Commit() error { return c.simple(verbs[verbCommit].Name) }

// Abort rolls back the open transaction.
func (c *Client) Abort() error { return c.simple(verbs[verbAbort].Name) }

func (c *Client) simple(cmd string) error {
	_, err := c.value(cmd)
	return err
}

// value sends one command and returns its reply without the +VALUE
// prefix; -ERR replies become errors.
func (c *Client) value(cmd string) (string, error) {
	reply, err := c.roundTrip(cmd)
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(reply, "+") {
		return "", fmt.Errorf("server: %s", strings.TrimPrefix(reply, "-ERR "))
	}
	return strings.TrimPrefix(reply, "+VALUE "), nil
}

// Raw sends one verbatim command line and returns the single-line
// reply (without the +/- status prefix); -ERR replies become errors.
func (c *Client) Raw(line string) (string, error) {
	reply, err := c.value(line)
	return strings.TrimPrefix(reply, "+"), err
}

// Stats fetches the server counters line.
func (c *Client) Stats() (string, error) { return c.value(verbs[verbStats].Name) }

// StatsFull fetches and decodes the full observability snapshot.
func (c *Client) StatsFull() (StatsJSON, error) {
	var st StatsJSON
	reply, err := c.value(verbs[verbStats].Name + " FULL")
	if err == nil {
		err = json.Unmarshal([]byte(reply), &st)
	}
	return st, err
}
