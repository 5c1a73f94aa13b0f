package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wireConn is the load generator's connection: one request line out,
// one reply line back, with the bytes and round trips counted so the
// server layer's per-op traffic is a measurement and not a guess.
type wireConn struct {
	c     net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	bytes int64 // sent + received
	trips int64
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// 1 MiB matches the server's own line limit; STATS FULL is the
	// longest reply line.
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 1<<20), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (c *wireConn) Close() error { return c.c.Close() }

// send queues req (newline included) without flushing.
func (c *wireConn) send(req []byte) error {
	c.bytes += int64(len(req))
	_, err := c.w.Write(req)
	return err
}

// recv reads one reply line, without its newline. The slice is valid
// until the next recv.
func (c *wireConn) recv() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	c.bytes += int64(len(line))
	return bytes.TrimRight(line, "\r\n"), nil
}

// roundTrip sends one request and waits for its reply line.
func (c *wireConn) roundTrip(req []byte) ([]byte, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	c.trips++
	return c.recv()
}

// command is roundTrip for set-up verbs: any reply but +... is an error.
func (c *wireConn) command(line string) error {
	reply, err := c.roundTrip([]byte(line + "\n"))
	if err != nil {
		return fmt.Errorf("%s: %w", firstField(line), err)
	}
	if !bytes.HasPrefix(reply, []byte("+")) {
		return fmt.Errorf("%s: server replied %q", firstField(line), reply)
	}
	return nil
}

func firstField(line string) string {
	if i := strings.IndexByte(line, ' '); i > 0 {
		return line[:i]
	}
	return line
}

// loadBatch is the rows per BEGIN..COMMIT during bulk load, so set-up
// pays one log flush per 500 rows and not one per row.
const loadBatch = 500

// loadTable inserts keys [0, rows) in order, pipelining each batch:
// the requests of a batch are written together and the replies read
// afterwards (the replies, a few bytes each, fit the socket buffer).
func (c *wireConn) loadTable(table string, rows int, l *loader) error {
	var req []byte
	for lo := 0; lo < rows; lo += loadBatch {
		hi := min(lo+loadBatch, rows)
		if err := c.send([]byte("BEGIN\n")); err != nil {
			return err
		}
		for k := lo; k < hi; k++ {
			req = append(req[:0], "SET "...)
			req = append(req, table...)
			req = append(req, ' ')
			req = strconv.AppendUint(req, uint64(k), 10)
			req = append(req, ' ')
			req = l.value(req, uint64(k))
			req = append(req, '\n')
			if err := c.send(req); err != nil {
				return err
			}
		}
		if err := c.send([]byte("COMMIT\n")); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for i := 0; i < hi-lo+2; i++ {
			reply, err := c.recv()
			if err != nil {
				return err
			}
			if !bytes.Equal(reply, []byte("+OK")) {
				return fmt.Errorf("load %s: server replied %q", table, reply)
			}
		}
	}
	return nil
}

// serverProc is a live hydra-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	dir    string
	output bytes.Buffer  // the child's stdout and stderr; read it only after exited
	exited chan struct{} // closed once the child has been waited for
}

// freeAddr reserves a loopback port by binding and releasing it; the
// server has no way to report a kernel-chosen port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer starts hydra-server in its default shape on dataDir and
// returns once it accepts connections. ctx cancellation kills the child.
func startServer(ctx context.Context, bin, dataDir string) (*serverProc, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &serverProc{addr: addr, dir: dataDir, exited: make(chan struct{})}
	p.cmd = exec.CommandContext(ctx, bin, "-addr", addr, "-dir", dataDir, "-config", "scalable", "-http", "")
	p.cmd.Stdout = &p.output
	p.cmd.Stderr = &p.output
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hydra-server: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // every child here ends by our signal; its status says nothing
		close(p.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		// The server listens only after the engine is open (recovery
		// included), so an accepted connection means ready.
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("hydra-server exited during start-up:\n%s", p.output.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("hydra-server did not answer on %s:\n%s", addr, p.output.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill is the process crash: SIGKILL, then wait until the child is gone.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// stop asks for a clean shutdown and falls back to kill.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
	}
}

// rssPeakMiB reads the child's peak resident set (VmHWM).
func (p *serverProc) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
