package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hydra/internal/rng"
	"hydra/internal/server"
)

// clients is fixed: the sandbox has two hardware contexts, and a fixed
// count keeps run documents comparable.
const clients = 2

// crashSample is how many acknowledged keys the process-crash check
// reads back after set_durable.
const crashSample = 1000

// liveConfig describes one run against a live hydra-server child.
type liveConfig struct {
	w         *workload
	seed      uint64
	warmup    time.Duration
	window    time.Duration
	setupReps int    // set-ups timed; the last one's server is the one measured
	serverBin string // built hydra-server
	workDir   string // scratch directory inside the checkout
}

// liveResult is what one live run observed, before any arithmetic.
type liveResult struct {
	attempted, failed int64
	samples           []int64 // ns, successful ops only, pooled over clients
	elapsed           time.Duration
	setups            []float64 // seconds, one per timed set-up
	rssPeakMiB        float64
	before, after     server.StatsJSON
	trips, bytes      int64 // round trips and bytes on the wire in the window
	valueBytes        int64 // value bytes of acknowledged SETs in the window
	writeCommits      int64 // acknowledged writing transactions in the window
	recoveryS         float64
	crashChecked      int
	problems          []string // failed output checks, in words
}

// acked is the last acknowledged write of one key; seq 0 means none.
type acked struct {
	seq uint64
	pad int
}

// client is one closed-loop connection with its own op stream.
type client struct {
	id   int
	gen  *generator
	conn *wireConn
	req  []byte

	// window counters, reset after warm-up
	attempted, failed int64
	samples           []int64
	valueBytes        int64
	writeCommits      int64

	// cumulative since load
	historyRows int     // acknowledged txn_hot COMMITs
	acked       []acked // set_durable / mixed_cold: by key
	dead        error   // connection lost
	firstFail   string
}

func (c *client) resetWindow() {
	c.attempted, c.failed, c.valueBytes, c.writeCommits = 0, 0, 0, 0
	c.samples = c.samples[:0]
	c.conn.bytes, c.conn.trips = 0, 0
}

func (c *client) fail(format string, args ...any) bool {
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf("client %d: ", c.id) + fmt.Sprintf(format, args...)
	}
	return false
}

var (
	replyOK    = []byte("+OK")
	valuePfx   = []byte("+VALUE ")
	reqBegin   = []byte("BEGIN\n")
	reqCommit  = []byte("COMMIT\n")
	reqAbort   = []byte("ABORT\n")
	maxHistory = uint64(1)<<40 - 1
)

// statement sends one data verb and checks its reply.
func (c *client) statement(s *stmt) bool {
	c.req = c.gen.appendRequest(c.req[:0], s)
	reply, err := c.conn.roundTrip(c.req)
	if err != nil {
		c.dead = err
		return c.fail("%v", err)
	}
	if s.get {
		v, ok := bytes.CutPrefix(reply, valuePfx)
		if !ok {
			return c.fail("GET %s %d: %q", s.table, s.key, clip(reply))
		}
		if !checkValue(v, s.key, c.gen.w.valueSize) {
			return c.fail("GET %s %d: wrong value %q", s.table, s.key, clip(v))
		}
		return true
	}
	if !bytes.Equal(reply, replyOK) {
		return c.fail("SET %s %d: %q", s.table, s.key, clip(reply))
	}
	return true
}

func (c *client) control(req []byte) bool {
	reply, err := c.conn.roundTrip(req)
	if err != nil {
		c.dead = err
		return c.fail("%v", err)
	}
	if !bytes.Equal(reply, replyOK) {
		return c.fail("%s: %q", bytes.TrimSpace(req), clip(reply))
	}
	return true
}

func clip(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}

// exec runs one op to its final reply and reports whether every reply
// was the expected one.
func (c *client) exec(o *op) bool {
	if !o.txn {
		s := &o.stmts[0]
		if !c.statement(s) {
			return false
		}
		if !s.get {
			c.noteWrite(s)
			c.writeCommits++
		}
		return true
	}
	if !c.control(reqBegin) {
		return false
	}
	for i := range o.stmts {
		if !c.statement(&o.stmts[i]) {
			if c.dead == nil {
				c.control(reqAbort)
			}
			return false
		}
	}
	if !c.control(reqCommit) {
		return false
	}
	for i := range o.stmts {
		c.noteWrite(&o.stmts[i])
	}
	c.writeCommits++
	c.historyRows++
	return true
}

func (c *client) noteWrite(s *stmt) {
	c.valueBytes += int64(c.gen.w.valueSize)
	if c.acked != nil {
		c.acked[s.key] = acked{seq: s.seq, pad: s.pad}
	}
}

// run is the closed loop: the next request leaves only after the
// previous reply arrived. An op begun before the deadline is finished
// and counted.
func (c *client) run(until time.Time) {
	for c.dead == nil {
		t0 := time.Now()
		if !t0.Before(until) {
			return
		}
		o := c.gen.next()
		ok := c.exec(o)
		d := time.Since(t0)
		c.attempted++
		if ok {
			c.samples = append(c.samples, int64(d))
		} else {
			c.failed++
		}
	}
}

// setUp starts a server on a fresh directory, creates and loads the
// workload's tables, and returns the server with the seconds it took
// from process start to ready.
func setUp(ctx context.Context, cfg *liveConfig, dir string) (*serverProc, float64, error) {
	dataDir := filepath.Join(dir, "db")
	t0 := time.Now()
	p, err := startServer(ctx, cfg.serverBin, dataDir)
	if err != nil {
		return nil, 0, err
	}
	err = func() error {
		c, err := dialWire(p.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		l := newLoader(cfg.w, cfg.seed)
		for _, t := range cfg.w.tables {
			if err := c.command("CREATE " + t.name); err != nil {
				return err
			}
			if err := c.loadTable(t.name, t.rows, l); err != nil {
				return err
			}
		}
		return c.command("PING")
	}()
	if err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return p, time.Since(t0).Seconds(), nil
}

// runLive performs the set-ups, the warm-up and the measured window of
// one workload against a live server, then the output checks.
func runLive(ctx context.Context, cfg *liveConfig) (*liveResult, error) {
	res := &liveResult{}
	dir, err := os.MkdirTemp(cfg.workDir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var p *serverProc
	for rep := 0; rep < cfg.setupReps; rep++ {
		if p != nil {
			// A timed set-up that is not the measured one: its server
			// and data are thrown away.
			p.kill()
			if err := os.RemoveAll(p.dir); err != nil {
				return nil, err
			}
		}
		var secs float64
		p, secs, err = setUp(ctx, cfg, dir)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, secs)
	}
	defer func() { p.stop() }() // p is replaced by the crash check

	// The control connection only brackets the window and runs checks,
	// so the repository's own client serves.
	ctl, err := server.Dial(p.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	cs := make([]*client, clients)
	for i := range cs {
		conn, err := dialWire(p.addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		cs[i] = &client{id: i, gen: newGenerator(cfg.w, cfg.seed, i, clients), conn: conn}
		if !cfg.w.txn {
			cs[i].acked = make([]acked, cfg.w.tables[0].rows)
		}
	}
	phase := func(d time.Duration) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		until := start.Add(d)
		for _, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(until)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	phase(cfg.warmup)
	for _, c := range cs {
		if c.dead != nil {
			return nil, fmt.Errorf("warm-up: %s", c.firstFail)
		}
		c.resetWindow()
	}
	// The two snapshots bracket the window with no traffic in flight,
	// so the counter deltas belong to exactly the ops counted here.
	if res.before, err = ctl.StatsFull(); err != nil {
		return nil, err
	}
	res.elapsed = phase(cfg.window)
	if res.after, err = ctl.StatsFull(); err != nil {
		return nil, err
	}
	if res.rssPeakMiB, err = p.rssPeakMiB(); err != nil {
		return nil, err
	}
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		res.samples = append(res.samples, c.samples...)
		res.trips += c.conn.trips
		res.bytes += c.conn.bytes
		res.valueBytes += c.valueBytes
		res.writeCommits += c.writeCommits
		if c.firstFail != "" {
			res.problems = append(res.problems, c.firstFail)
		}
	}

	if cfg.w.txn {
		// Every acknowledged COMMIT left exactly one history row.
		for _, c := range cs {
			lo := historyBase(c.id)
			n, err := countRows(ctl, "history", lo, lo|maxHistory)
			if err != nil {
				return nil, err
			}
			res.attempted++
			if n != c.historyRows {
				res.failed++
				res.problems = append(res.problems,
					fmt.Sprintf("client %d: %d history rows for %d acknowledged COMMITs", c.id, n, c.historyRows))
			}
		}
	}
	if cfg.w.name == "set_durable" {
		if p, err = crashCheck(ctx, cfg, p, cs, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// crashCheck is the process-crash durability check: SIGKILL the
// server, restart it on the same directory and read a sample of keys
// back; each must hold the last value the server acknowledged. The OS
// page cache survives a process crash, so this is not power-loss
// durability.
func crashCheck(ctx context.Context, cfg *liveConfig, p *serverProc, cs []*client, res *liveResult) (*serverProc, error) {
	type want struct {
		key uint64
		c   *client
	}
	var written []want
	for _, c := range cs {
		for k, a := range c.acked {
			if a.seq != 0 {
				written = append(written, want{uint64(k), c})
			}
		}
	}
	src := rng.New(cfg.seed).Split(1 << 21)
	src.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	written = written[:min(crashSample, len(written))]

	p.kill()
	t0 := time.Now()
	np, err := startServer(ctx, cfg.serverBin, p.dir)
	if err != nil {
		return p, fmt.Errorf("restart after crash: %w", err)
	}
	res.recoveryS = time.Since(t0).Seconds()
	cl, err := server.Dial(np.addr)
	if err != nil {
		return np, err
	}
	defer cl.Close()
	var wantVal []byte
	for _, wk := range written {
		a := wk.c.acked[wk.key]
		wantVal = appendValue(wantVal[:0], wk.key, strconv.Itoa(wk.c.id), a.seq, cfg.w.valueSize, wk.c.gen.pad, a.pad)
		got, err := cl.Get(cfg.w.tables[0].name, wk.key)
		res.attempted++
		res.crashChecked++
		if err != nil || got != string(wantVal) {
			res.failed++
			res.problems = append(res.problems,
				fmt.Sprintf("after crash: key %d holds %q (%v), acknowledged %q", wk.key, clip([]byte(got)), err, clip(wantVal)))
		}
	}
	return np, nil
}

// countRows counts the rows of table in [lo, hi], in chunks so no
// reply grows without bound.
func countRows(cl *server.Client, table string, lo, hi uint64) (int, error) {
	const chunk = 5000
	total := 0
	for {
		rows, err := cl.Scan(table, lo, hi, chunk)
		if err != nil {
			return 0, err
		}
		total += len(rows)
		if len(rows) < chunk || rows[len(rows)-1].Key == hi {
			return total, nil
		}
		lo = rows[len(rows)-1].Key + 1
	}
}
