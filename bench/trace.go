package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"hydra/internal/btree"
	"hydra/internal/core"
	"hydra/internal/heap"
	"hydra/internal/lock"
	"hydra/internal/server"
	"hydra/internal/wal"
)

// The traced run hosts the engine inside this process, with the
// core.Config hydra-server builds, so each layer's handle is
// reachable. Spans are recorded only here, around calls into public
// functions; the engine itself is not instrumented. Three passes run
// the same single-client op stream, each on its own copy of one loaded
// store:
//
//	wire   server.Dial client -> in-process server.Server    span request
//	core   Engine.Exec / Begin..Commit, as the server calls   span core.exec
//	layers the calls core would make, issued directly         spans lock.*, btree.get,
//	                                                          buffer.fetch, heap.read, wal.*
//
// and a fourth repeats the wire pass with spans off, for the overhead.

// span is one timed interval. parent names the span of the same op
// that caused it; passes differ, so the link is by (parent, op).
type span struct {
	name, parent string
	op           int
	start, end   int64 // ns since the trace began
}

type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// clockCost is what an empty span measures: the cost of reading the
// clock once. The layer spans are a few hundred nanoseconds long, so
// the derived times take it out; the span file keeps the raw stamps.
func (t *tracer) clockCost() int64 {
	d := make([]int64, 10001)
	for i := range d {
		t0 := t.now()
		d[i] = t.now() - t0
	}
	slices.Sort(d)
	return d[len(d)/2]
}

func (t *tracer) add(name, parent string, op int, start, end int64) {
	if t.on {
		t.spans = append(t.spans, span{name, parent, op, start, end})
	}
}

// write stores the spans as one JSON array, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = "[\n"
		}
		buf = append(buf[:0], sep...)
		buf = append(buf, `{"name":"`...)
		buf = append(buf, s.name...)
		buf = append(buf, `","parent":"`...)
		buf = append(buf, s.parent...)
		buf = append(buf, `","op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '}')
		w.Write(buf) // the error is sticky and reported by Flush
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverConfig is the core.Config cmd/hydra-server builds for
// `-config scalable -dir dir` without -mvcc.
func serverConfig(dir string) core.Config {
	cfg := core.Scalable()
	cfg.Dir = dir
	return cfg
}

// loadStore creates the workload's tables in dir and loads them with
// the rows the live run loads, then closes the engine cleanly so every
// pass can start from a byte-identical copy.
func loadStore(w *workload, seed uint64, dir string) error {
	e, err := core.Open(serverConfig(dir))
	if err != nil {
		return err
	}
	l := newLoader(w, seed)
	var val []byte
	for _, t := range w.tables {
		tbl, err := e.CreateTable(t.name)
		if err != nil {
			e.Close()
			return err
		}
		for lo := 0; lo < t.rows; lo += loadBatch {
			err := e.Exec(func(tx *core.Txn) error {
				for k := lo; k < min(lo+loadBatch, t.rows); k++ {
					val = l.value(val[:0], uint64(k))
					if err := tx.Insert(tbl, uint64(k), val); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				e.Close()
				return fmt.Errorf("load %s: %w", t.name, err)
			}
		}
	}
	// A checkpoint bounds the recovery scan each pass pays on open.
	if err := e.Checkpoint(); err != nil {
		e.Close()
		return err
	}
	return e.Close()
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openCopy opens an engine on a fresh copy of the loaded store.
func openCopy(loaded, dir string) (*core.Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{"pages.db", "wal.log"} {
		if err := copyFile(filepath.Join(dir, name), filepath.Join(loaded, name)); err != nil {
			return nil, err
		}
	}
	return core.Open(serverConfig(dir))
}

// passCounts are the counts a single client must reproduce exactly,
// run after run and between the wire pass and the core pass.
type passCounts struct {
	LockAcquires, WalInserts, WalBytes, BufFetches, Commits uint64
}

func countsBetween(b, a core.Stats) passCounts {
	return passCounts{
		LockAcquires: a.Lock.Acquires - b.Lock.Acquires,
		WalInserts:   a.Log.Inserts - b.Log.Inserts,
		WalBytes:     a.Log.InsertedBytes - b.Log.InsertedBytes,
		BufFetches:   (a.Buffer.Hits + a.Buffer.Misses) - (b.Buffer.Hits + b.Buffer.Misses),
		Commits:      a.Commits - b.Commits,
	}
}

// passResult is what one pass over the op stream observed.
type passResult struct {
	counts  passCounts
	elapsed time.Duration
	perOp   []int64 // ns inside the pass's root span(s), by op
	failed  int64

	// core pass only: the log records each op wrote.
	walInserts, walBytes []uint64

	// layers pass only, by op.
	layers *layerTimes
}

// tracePlan is the op stream of a traced run: warm untimed ops from a
// second stream first, so the pool starts every pass in the same warm
// state, then the measured ops.
type tracePlan struct {
	w    *workload
	seed uint64
}

// drive runs the plan through run: first the warm-up ops, untimed and
// unrecorded (run sees i = -1), then the measured ops. run returns the
// nanoseconds the op spent inside the pass's spans and whether its
// output was the expected one.
func (p *tracePlan) drive(e *core.Engine, tr *tracer, res *passResult, run func(g *generator, i int) (int64, bool, error)) error {
	on := tr.on
	tr.on = false
	g := newGenerator(p.w, p.seed, 1, 1)
	for i := 0; i < p.w.traceOps; i++ {
		if _, ok, err := run(g, -1); err != nil || !ok {
			return fmt.Errorf("warm-up op %d failed: %v", i, err)
		}
	}
	tr.on = on
	g = newGenerator(p.w, p.seed, 0, 1)
	res.perOp = make([]int64, p.w.traceOps)
	before := e.StatsSnapshot()
	start := time.Now()
	for i := 0; i < p.w.traceOps; i++ {
		d, ok, err := run(g, i)
		if err != nil {
			return err
		}
		res.perOp[i] = d
		if !ok {
			res.failed++
		}
	}
	res.elapsed = time.Since(start)
	res.counts = countsBetween(before, e.StatsSnapshot())
	return nil
}

// tablesOf resolves the workload's tables once per pass.
func tablesOf(e *core.Engine, w *workload) (map[string]*core.Table, error) {
	tables := map[string]*core.Table{}
	for _, t := range w.tables {
		tbl, err := e.Table(t.name)
		if err != nil {
			return nil, err
		}
		tables[t.name] = tbl
	}
	return tables, nil
}

// wirePass drives the ops through server.Dial against an in-process
// server.Server on loopback.
func wirePass(e *core.Engine, plan *tracePlan, tr *tracer) (*passResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(e)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	var val []byte
	size := plan.w.valueSize
	// request times one round trip and checks its outcome.
	request := func(g *generator, i int, s *stmt, control func() error) (int64, bool) {
		var err error
		var got string
		if s != nil && !s.get {
			val = g.value(val[:0], s)
		}
		t0 := tr.now()
		switch {
		case s == nil:
			err = control()
		case s.get:
			got, err = cl.Get(s.table, s.key)
		default:
			err = cl.Set(s.table, s.key, string(val))
		}
		t1 := tr.now()
		tr.add("request", "", i, t0, t1)
		ok := err == nil && (s == nil || !s.get || checkValue([]byte(got), s.key, size))
		return t1 - t0, ok
	}
	res := &passResult{}
	err = plan.drive(e, tr, res, func(g *generator, i int) (int64, bool, error) {
		o := g.next()
		if !o.txn {
			d, ok := request(g, i, &o.stmts[0], nil)
			return d, ok, nil
		}
		total, ok := request(g, i, nil, cl.Begin)
		for j := range o.stmts {
			d, sok := request(g, i, &o.stmts[j], nil)
			total, ok = total+d, ok && sok
		}
		d, cok := request(g, i, nil, cl.Commit)
		return total + d, ok && cok, nil
	})
	return res, err
}

// upsert is what the server's SET does inside a transaction.
func upsert(tx *core.Txn, tbl *core.Table, key uint64, val []byte) error {
	err := tx.Update(tbl, key, val)
	if errors.Is(err, core.ErrNotFound) {
		return tx.Insert(tbl, key, val)
	}
	return err
}

// corePass issues the calls the server's dispatch makes for each verb,
// without the wire.
func corePass(e *core.Engine, plan *tracePlan, tr *tracer) (*passResult, error) {
	tables, err := tablesOf(e, plan.w)
	if err != nil {
		return nil, err
	}
	res := &passResult{walInserts: make([]uint64, plan.w.traceOps), walBytes: make([]uint64, plan.w.traceOps)}
	var val []byte
	size := plan.w.valueSize
	err = plan.drive(e, tr, res, func(g *generator, i int) (int64, bool, error) {
		o := g.next()
		var err error
		ok := true
		l0 := e.Log().StatsSnapshot()
		t0 := tr.now()
		if o.txn {
			// BEGIN, the statements, COMMIT: as the connection handler runs them.
			tx := e.Begin()
			for j := range o.stmts {
				s := &o.stmts[j]
				val = g.value(val[:0], s)
				if err = upsert(tx, tables[s.table], s.key, val); err != nil {
					break
				}
			}
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
		} else if s := &o.stmts[0]; s.get {
			err = e.Exec(func(tx *core.Txn) error {
				v, err := tx.Read(tables[s.table], s.key)
				ok = err == nil && checkValue(v, s.key, size)
				return err
			})
		} else {
			val = g.value(val[:0], s)
			err = e.Exec(func(tx *core.Txn) error { return upsert(tx, tables[s.table], s.key, val) })
		}
		t1 := tr.now()
		tr.add("core.exec", "request", i, t0, t1)
		if i >= 0 {
			l1 := e.Log().StatsSnapshot()
			res.walInserts[i] = l1.Inserts - l0.Inserts
			res.walBytes[i] = l1.InsertedBytes - l0.InsertedBytes
		}
		return t1 - t0, ok && err == nil, nil
	})
	return res, err
}

// layerTimes holds the layers pass's observations, by op unless noted.
type layerTimes struct {
	lock, btree, heap, probe, walAppend, walFlush []int64 // ns
	// buffer fetches the btree and heap calls caused, from the pool's
	// own counters: their cost is the buffer's, not the caller's.
	btreeHits, btreeMisses, heapHits, heapMisses []uint64
	// one entry per call, for per-call means and medians
	locksTaken, btreeCalls, heapCalls, walRecords, walWaits int64
	probeHit, probeMiss                                     []int64 // ns per probe fetch
}

// layersPass issues, for every op, the calls core would make into each
// layer, directly and one layer at a time. Nothing is written to the
// store; a written row's page is unpinned dirty, so evictions pay the
// write-back core's update would cause. Log records go to a
// stand-alone log on its own file, with the engine's options and the
// record count and bytes the core pass saw for the same op.
func layersPass(e *core.Engine, dir string, plan *tracePlan, tr *tracer, corePass *passResult) (*passResult, error) {
	cfg := serverConfig(dir)
	dev, err := wal.OpenFile(filepath.Join(dir, "layers-wal.log"))
	if err != nil {
		return nil, err
	}
	lg, err := wal.New(dev, wal.Options{Kind: cfg.LogKind, BufferSize: cfg.LogBufferSize, SyncOnFlush: cfg.SyncCommit})
	if err != nil {
		dev.Close()
		return nil, err
	}
	defer func() {
		lg.Close()
		dev.Close()
	}()

	tables, err := tablesOf(e, plan.w)
	if err != nil {
		return nil, err
	}
	n := plan.w.traceOps
	lt := &layerTimes{
		lock: make([]int64, n), btree: make([]int64, n), heap: make([]int64, n), probe: make([]int64, n),
		walAppend: make([]int64, n), walFlush: make([]int64, n),
		btreeHits: make([]uint64, n), btreeMisses: make([]uint64, n),
		heapHits: make([]uint64, n), heapMisses: make([]uint64, n),
	}
	res := &passResult{layers: lt}
	pool, locks := e.Pool(), e.Locks()
	payload := make([]byte, wal.MaxPayload)
	cost := tr.clockCost()
	dur := func(start, end int64) int64 { return max(end-start-cost, 0) }
	emptySize := uint64(wal.EncodedSize(0))

	// one issues one statement's layer calls. i < 0 is warm-up: the
	// same calls, nothing recorded.
	one := func(h *lock.Holder, i int, s *stmt) error {
		tbl := tables[s.table]
		tableMode, rowMode := lock.IX, lock.X
		if s.get {
			tableMode, rowMode = lock.IS, lock.S
		}
		// A SET of an absent key runs Update then Insert: the lock pair
		// and the index probe happen twice.
		for attempt := 0; attempt < 2; attempt++ {
			t0 := tr.now()
			if err := h.Acquire(lock.TableName(tbl.ID), tableMode); err != nil {
				return err
			}
			if err := h.Acquire(lock.RowName(tbl.ID, s.key), rowMode); err != nil {
				return err
			}
			t1 := tr.now()
			tr.add("lock.acquire", "core.exec", i, t0, t1)

			b0 := pool.StatsSnapshot()
			t2 := tr.now()
			packed, err := tbl.Index.Get(s.key)
			t3 := tr.now()
			b1 := pool.StatsSnapshot()
			tr.add("btree.get", "core.exec", i, t2, t3)
			if i >= 0 {
				lt.lock[i] += dur(t0, t1)
				lt.locksTaken += 2
				lt.btree[i] += dur(t2, t3)
				lt.btreeCalls++
				lt.btreeHits[i] += b1.Hits - b0.Hits
				lt.btreeMisses[i] += b1.Misses - b0.Misses
			}
			if errors.Is(err, btree.ErrNotFound) && !s.get {
				continue
			}
			if err != nil {
				return err
			}

			// The probe fetches the row's page first, so the miss (if
			// any) is the buffer's span and heap.read then hits.
			rid := heap.Unpack(packed)
			t4 := tr.now()
			f, err := pool.Fetch(rid.Page)
			if err != nil {
				return err
			}
			pool.Unpin(f, !s.get)
			t5 := tr.now()
			b2 := pool.StatsSnapshot()
			tr.add("buffer.fetch", "heap.read", i, t4, t5)

			t6 := tr.now()
			rec, err := tbl.Heap.Read(rid)
			t7 := tr.now()
			b3 := pool.StatsSnapshot()
			tr.add("heap.read", "core.exec", i, t6, t7)
			if err != nil {
				return err
			}
			if i >= 0 {
				lt.probe[i] += dur(t4, t5)
				if b2.Misses > b1.Misses {
					lt.probeMiss = append(lt.probeMiss, dur(t4, t5))
				} else {
					lt.probeHit = append(lt.probeHit, dur(t4, t5))
				}
				lt.heap[i] += dur(t6, t7)
				lt.heapCalls++
				lt.heapHits[i] += b3.Hits - b2.Hits
				lt.heapMisses[i] += b3.Misses - b2.Misses
			}
			if s.get && !checkValue(rec[8:], s.key, plan.w.valueSize) { // a row record is key(8) + value
				return fmt.Errorf("layers pass: wrong row under key %d", s.key)
			}
			return nil
		}
		return nil
	}

	// logOp replays the op's log traffic: begin, the data records
	// sharing the observed payload bytes, commit, the flush wait, end.
	logOp := func(i int, id uint64, inserts, bytes uint64) error {
		if inserts < 4 {
			return nil // a read-only op logs nothing
		}
		data := inserts - 3
		body := (bytes - inserts*emptySize) / data
		first := body + (bytes-inserts*emptySize)%data
		t0 := tr.now()
		prev, err := lg.AppendFields(wal.RecBegin, id, wal.NilLSN, 0, 0, nil)
		for r := uint64(0); r < data && err == nil; r++ {
			size := body
			if r == 0 {
				size = first
			}
			prev, err = lg.AppendFields(wal.RecUpdate, id, prev, 0, 0, payload[:size])
		}
		if err != nil {
			return err
		}
		commit, err := lg.AppendFields(wal.RecCommit, id, prev, 0, 0, nil)
		if err != nil {
			return err
		}
		t1 := tr.now()
		if err := lg.WaitFlushed(commit); err != nil {
			return err
		}
		t2 := tr.now()
		if _, err := lg.AppendFields(wal.RecEnd, id, commit, 0, 0, nil); err != nil {
			return err
		}
		t3 := tr.now()
		tr.add("wal.append", "core.exec", i, t0, t1)
		tr.add("wal.flush_wait", "core.exec", i, t1, t2)
		tr.add("wal.append", "core.exec", i, t2, t3)
		if i >= 0 {
			lt.walAppend[i] = dur(t0, t1) + dur(t2, t3)
			lt.walFlush[i] = dur(t1, t2)
			lt.walRecords += int64(inserts)
			lt.walWaits++
		}
		return nil
	}

	// One holder, reset per op: core recycles its transactions' holders
	// the same way.
	h := locks.NewHolder(0)
	var id uint64
	err = plan.drive(e, tr, res, func(g *generator, i int) (int64, bool, error) {
		o := g.next()
		id++
		h.Reset(id)
		for j := range o.stmts {
			if err := one(h, i, &o.stmts[j]); err != nil {
				return 0, false, err
			}
		}
		var inserts, bytes uint64
		if i >= 0 {
			inserts, bytes = corePass.walInserts[i], corePass.walBytes[i]
		} else if !o.stmts[0].get {
			// Warm-up writes log what a measured write of this shape logs.
			inserts = uint64(len(o.stmts)) + 3
			bytes = inserts*emptySize + uint64(len(o.stmts)*(2*plan.w.valueSize+64))
		}
		if err := logOp(i, id, inserts, bytes); err != nil {
			return 0, false, err
		}
		t0 := tr.now()
		h.ReleaseAll()
		t1 := tr.now()
		tr.add("lock.release", "core.exec", i, t0, t1)
		if i < 0 {
			return 0, true, nil
		}
		lt.lock[i] += dur(t0, t1)
		return lt.lock[i] + lt.btree[i] + lt.heap[i] + lt.probe[i] + lt.walAppend[i] + lt.walFlush[i], true, nil
	})
	return res, err
}

// tracedPasses loads one store and runs the four passes over copies
// of it. It returns them in the order wire (spans off), wire, core,
// layers, with the spans in tr.
func tracedPasses(w *workload, seed uint64, workDir string, tr *tracer) ([4]*passResult, error) {
	var out [4]*passResult
	dir, err := os.MkdirTemp(workDir, "trace-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	loaded := filepath.Join(dir, "loaded")
	if err := os.MkdirAll(loaded, 0o755); err != nil {
		return out, err
	}
	if err := loadStore(w, seed, loaded); err != nil {
		return out, err
	}
	plan := &tracePlan{w: w, seed: seed}
	for i, name := range []string{"wire-untraced", "wire", "core", "layers"} {
		passDir := filepath.Join(dir, name)
		e, err := openCopy(loaded, passDir)
		if err != nil {
			return out, fmt.Errorf("%s pass: %w", name, err)
		}
		tr.on = i > 0
		switch i {
		case 0, 1:
			out[i], err = wirePass(e, plan, tr)
		case 2:
			out[i], err = corePass(e, plan, tr)
		case 3:
			out[i], err = layersPass(e, passDir, plan, tr, out[2])
		}
		cerr := e.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return out, fmt.Errorf("%s pass: %w", name, err)
		}
		if err := os.RemoveAll(passDir); err != nil {
			return out, err
		}
	}
	return out, nil
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func medianInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(percentile(s, 50))
}

// timeMetrics derives the per-layer times from the passes. Self time
// is paired by op index: the server's is request minus core.exec, the
// core's is core.exec minus the layer spans of the same op; both are
// medians of the paired differences, so one slow flush in one pass
// does not move them. A layer's own figure is the mean per call. The
// buffer's time inside a btree or heap call is taken out of that call
// and given to the buffer, priced per fetch at the probe's hit and
// miss medians.
func timeMetrics(p [4]*passResult) []metric {
	untraced, wire, corep, lay := p[0], p[1], p[2], p[3]
	lt := lay.layers
	n := len(wire.perOp)
	hitNs, missNs := medianInt(lt.probeHit), medianInt(lt.probeMiss)
	fetchCost := func(hits, misses uint64) float64 { return float64(hits)*hitNs + float64(misses)*missNs }

	serverSelf := make([]int64, n)
	coreSelf := make([]int64, n)
	var btreeSelf, heapSelf, bufferNs, lockNs, appendNs, flushNs float64
	for i := 0; i < n; i++ {
		serverSelf[i] = wire.perOp[i] - corep.perOp[i]
		coreSelf[i] = corep.perOp[i] - lay.perOp[i]
		bc := fetchCost(lt.btreeHits[i], lt.btreeMisses[i])
		hc := fetchCost(lt.heapHits[i], lt.heapMisses[i])
		btreeSelf += float64(lt.btree[i]) - bc
		heapSelf += float64(lt.heap[i]) - hc
		bufferNs += float64(lt.probe[i]) + bc + hc
		lockNs += float64(lt.lock[i])
		appendNs += float64(lt.walAppend[i])
		flushNs += float64(lt.walFlush[i])
	}
	serverSelfNs, coreSelfNs := medianInt(serverSelf), medianInt(coreSelf)
	requestNs := meanInt(wire.perOp)
	ops := float64(n)
	attributed := serverSelfNs + coreSelfNs + (btreeSelf+heapSelf+bufferNs+lockNs+appendNs+flushNs)/ops
	rateOn := ops / wire.elapsed.Seconds()
	rateOff := ops / untraced.elapsed.Seconds()
	return []metric{
		{"server.self_us", "us", us(serverSelfNs), int64(n)},
		{"core.self_us", "us", us(coreSelfNs), int64(n)},
		{"lock.acquire_us", "us", us(ratio(lockNs, float64(lt.locksTaken))), lt.locksTaken},
		{"btree.get_us", "us", us(ratio(btreeSelf, float64(lt.btreeCalls))), lt.btreeCalls},
		{"heap.read_us", "us", us(ratio(heapSelf, float64(lt.heapCalls))), lt.heapCalls},
		{"buffer.fetch_hit_us", "us", us(hitNs), int64(len(lt.probeHit))},
		{"buffer.fetch_miss_us", "us", us(missNs), int64(len(lt.probeMiss))},
		{"wal.append_us", "us", us(ratio(appendNs, float64(lt.walRecords))), lt.walRecords},
		{"wal.flush_wait_us", "us", us(ratio(flushNs, float64(lt.walWaits))), lt.walWaits},
		{"trace.request_us", "us", us(requestNs), int64(n)},
		{"trace.unattributed_share", "ratio", ratio(requestNs-attributed, requestNs), int64(n)},
		{"trace.overhead", "ratio", ratio(rateOff-rateOn, rateOff), int64(n)},
	}
}

// runTraced is the traced run: a short live window for the per-layer
// counts (two clients, so waits and group commit are real), then the
// in-process passes for the per-layer times. Never mixed with the
// end-to-end run.
func runTraced(ctx context.Context, env *environment, w *workload, seed uint64, seconds int) (*runResult, error) {
	window := time.Duration(seconds) * time.Second / 2
	live, err := runLive(ctx, &liveConfig{
		w: w, seed: seed, warmup: warmup, window: window,
		setupReps: 1, serverBin: env.serverBin, workDir: env.workDir,
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(live.samples)
	r := &runResult{
		workload:      w.name,
		perLayer:      countMetrics(live),
		informational: informationalMetrics(live),
		attempted:     live.attempted,
		failed:        live.failed,
		problems:      live.problems,
	}
	r.problems = append(r.problems, validate(w, r.perLayer)...)

	tr := &tracer{epoch: time.Now()}
	passes, err := tracedPasses(w, seed, env.workDir, tr)
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		r.attempted += int64(len(p.perOp))
		r.failed += p.failed
	}
	if passes[1].counts != passes[2].counts {
		r.problems = append(r.problems, fmt.Sprintf("%s: wire pass counted %+v, core pass %+v", w.name, passes[1].counts, passes[2].counts))
	}
	r.perLayer = append(r.perLayer, timeMetrics(passes)...)
	c := passes[2].counts
	r.informational = append(r.informational,
		metric{"trace.ops", "count", float64(w.traceOps), 1},
		metric{"trace.spans", "count", float64(len(tr.spans)), 1},
		metric{"trace.lock_acquires", "count", float64(c.LockAcquires), 1},
		metric{"trace.wal_inserts", "count", float64(c.WalInserts), 1},
		metric{"trace.wal_inserted_bytes", "count", float64(c.WalBytes), 1},
		metric{"trace.buffer_fetches", "count", float64(c.BufFetches), 1},
		metric{"trace.commits", "count", float64(c.Commits), 1})
	if err := tr.write(filepath.Join(env.root, "bench", "out", "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	r.correct = len(r.problems) == 0 && r.failed == 0
	return r, nil
}
