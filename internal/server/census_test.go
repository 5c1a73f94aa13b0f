package server

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"hydra/internal/core"
	"hydra/internal/invariant"
	"hydra/internal/obs"
	"hydra/internal/rng"
	"hydra/internal/wal"
)

// censusWorkload is one of the four workloads of the wire benchmark
// (bench/README.md) as one client sends it: the tables it loads, its
// value size, and the mix of its ops.
type censusWorkload struct {
	name        string
	tables      []censusTable
	valueSize   int
	getPermille int  // autocommit GETs per thousand ops; the rest are SETs
	txn         bool // BEGIN; SET account, teller, branch, history; COMMIT
	frames      int  // the buffer pool
	ops         int  // measured ops
	mvcc        bool // the server's -mvcc: autocommit GETs are snapshot reads
	// The pinned counts per op: lock acquisitions, log records, log
	// bytes per byte of value written, request lines, allocations and
	// durable_read_waits; and the ranked-lock entries per op, per latch
	// tier.
	acquires, records, logPerUserByte, lines, allocs, readWaits float64
	tiers                                                       map[string]float64
}

type censusTable struct {
	name string
	rows int
}

// censusClient sends one client's op stream through dispatch, with no
// socket, and counts what the benchmark counts on the wire.
type censusClient struct {
	t          *testing.T
	c          *conn
	out        *bytes.Buffer
	src        *rng.Source
	w          *censusWorkload
	lines      int
	valueBytes int
	seq        uint64
	line       []byte
}

// send dispatches one request line and fails the test on an -ERR reply.
func (cc *censusClient) send(line []byte) {
	cc.lines++
	cc.c.dispatch(line)
	cc.c.w.Flush()
	if bytes.HasPrefix(cc.out.Bytes(), []byte("-ERR")) {
		cc.t.Fatalf("%s: %q answered %q", cc.w.name, line, cc.out.Bytes())
	}
	cc.out.Reset()
}

// set sends SET table key <value>, the value exactly valueSize bytes.
func (cc *censusClient) set(table string, key uint64) {
	cc.seq++
	l := append(cc.line[:0], "SET "...)
	l = append(l, table...)
	l = append(l, ' ')
	l = strconv.AppendUint(l, key, 10)
	l = append(l, ' ')
	v := len(l)
	l = strconv.AppendUint(l, key, 10)
	l = append(l, ':', '0', ':')
	l = strconv.AppendUint(l, cc.seq, 10)
	l = append(l, ':')
	for len(l)-v < cc.w.valueSize {
		l = append(l, 'p')
	}
	cc.line = l
	cc.valueBytes += cc.w.valueSize
	cc.send(l)
}

func (cc *censusClient) get(table string, key uint64) {
	cc.line = strconv.AppendUint(append(append(append(cc.line[:0], "GET "...), table...), ' '), key, 10)
	cc.send(cc.line)
}

// load creates the workload's tables and fills them in BEGIN; 500 x
// SET; COMMIT batches, as the benchmark's set-up does.
func (cc *censusClient) load() {
	for _, tb := range cc.w.tables {
		cc.send([]byte("CREATE " + tb.name))
		for lo := 0; lo < tb.rows; lo += 500 {
			cc.send([]byte("BEGIN"))
			for k := lo; k < min(lo+500, tb.rows); k++ {
				cc.set(tb.name, uint64(k))
			}
			cc.send([]byte("COMMIT"))
		}
	}
}

// op sends the workload's next op. Client 0 of the benchmark's two
// writes only even keys of kv, and its history keys are its sequence
// numbers (client<<40 | seq).
func (cc *censusClient) op() {
	w := cc.w
	if w.txn {
		cc.send(append(cc.line[:0], "BEGIN"...))
		cc.set("account", uint64(cc.src.Intn(w.tables[0].rows)))
		cc.set("teller", uint64(cc.src.Intn(w.tables[1].rows)))
		cc.set("branch", 0)
		cc.set("history", cc.seq+1)
		cc.send(append(cc.line[:0], "COMMIT"...))
		return
	}
	rows := w.tables[0].rows
	if cc.src.Intn(1000) < w.getPermille {
		cc.get("kv", uint64(cc.src.Intn(rows)))
	} else {
		cc.set("kv", uint64(cc.src.Intn(rows/2)*2))
	}
}

// warmupOps run after the load and before the measured ops: on txn_hot
// they fill the history table's first heap page, so the window sees one
// chain extension every 72 ops, the steady state of a long run.
const warmupOps = 72

// TestWireCensus pins the count-grade per-layer metrics of the four
// benchmark workloads (ROADMAP item 26(a)): one client's ops, sent
// through dispatch on one goroutine to an engine over a file log, in
// the benchmark's server configuration. Per op: lock acquisitions
// (lock.acquires_per_op, 2/2/2/10), log records (0/2/0.392/5.0139: a SET
// logs its update and its commit, mixed_cold's 196 SETs in 1000 ops, and
// a txn_hot op four rows and a commit, with a chain extension one op in
// 72), log bytes per byte of value written
// (wal.bytes_per_user_byte, 0/3.2700/2.1270/2.6949) and request lines
// (server.round_trips_per_op, 1/1/1/6), what the live benchmark run
// reads. A txn_hot op logs three 286 B updates, a 178 B insert and a
// 41 B commit (1077 B for 400 B of values), and its history table grows
// by a 70 B extension record every 72 rows: 2.6949. None of the counts
// depends on the table sizes, so mixed_cold loads 24 000 rows over a
// 1024-frame pool instead of 86 000 over 4096: still three pools of
// data, every miss an eviction, in a second of load.
//
// And the heap allocations per op (ROADMAP item 26(a)), of the server
// and the engine alike (the client's lines allocate nothing): 1/1/1/3.
// A GET's one is the row copy it answers with and a SET's the heap's
// log callback; a txn_hot op pays that for each of its three updates.
// A chain extension's record is encoded on the stack. The history row's
// missing key (the upsert's Update miss) allocates nothing: its error
// is the one the transaction handle keeps. The window runs
// on one P with the collector off, as testing.AllocsPerRun does, so the
// figure repeats run after run.
//
// It also pins the ranked-lock entries per op of each latch tier,
// counted between two tier reads that leave the window's StatsSnapshot
// calls outside. The wire adds no lock to
// TestAutocommitCriticalSections' rows: get_hot's frame_latch 2.982 and
// pool_shard 5.964 against its locked GET's 2.94 and 5.88 come from the
// table, 20 000 rows to its 1 000 (over 20 000 rows that census reads
// 2.985 and 5.97), and set_durable is its update row over the same
// table. No workload enters wal_log: a record reserves its log space
// with one add and copies without a lock; wal_device is the flusher's. mixed_cold's pool_shard 7.274 adds the misses' evictions, and
// txn_hot's heap_tail the history inserts and their chain extensions. A
// window the flusher's 1 ms tick entered has its log tiers checked
// against the flushes and records it saw instead, as core's census
// does: a tick flush is the flusher's, not an op's.
//
// The _mvcc rows are the same workloads on a server run with -mvcc
// (ROADMAP item 34(a)). An autocommit GET is a snapshot read: no lock
// acquisition, no lock_part entry, one mvcc_shard entry, and no
// durable_read_waits, its snapshot being pinned at the durable
// frontier; get_hot's tiers are its locked row's less lock_part, plus
// mvcc_shard. A write installs a version under one mvcc_shard entry per
// row and allocates more (4 per SET against 1, 11 per txn_hot op
// against 3); its locks, log records and log bytes are the
// locked rows'. durable_read_waits is pinned on every row: 0, the
// census's one client having waited for each of its commits.
func TestWireCensus(t *testing.T) {
	for _, w := range []censusWorkload{
		{name: "get_hot", tables: []censusTable{{"kv", 20000}}, valueSize: 100, getPermille: 1000, frames: 4096, ops: 2000,
			acquires: 2, records: 0, logPerUserByte: 0, lines: 1, allocs: 1,
			tiers: map[string]float64{"frame_latch": 2.982, "lock_part": 2, "pool_shard": 5.964}},
		{name: "set_durable", tables: []censusTable{{"kv", 20000}}, valueSize: 100, frames: 4096, ops: 200,
			acquires: 2, records: 2, logPerUserByte: 3.2700, lines: 1, allocs: 1,
			tiers: map[string]float64{"frame_latch": 2.96, "lock_part": 2, "pool_shard": 5.92, "wal_device": 2}},
		{name: "mixed_cold", tables: []censusTable{{"kv", 24000}}, valueSize: 1000, getPermille: 800, frames: 1024, ops: 1000,
			acquires: 2, records: 0.392, logPerUserByte: 2.1270, lines: 1, allocs: 1,
			tiers: map[string]float64{"frame_latch": 2.991, "lock_part": 2, "pool_shard": 7.274, "wal_device": 0.392}},
		{name: "txn_hot", tables: []censusTable{{"account", 10000}, {"teller", 10}, {"branch", 1}, {"history", 0}}, valueSize: 100, txn: true, frames: 4096, ops: 720,
			acquires: 10, records: 3610.0 / 720, logPerUserByte: 2.6949, lines: 6, allocs: 3,
			tiers: map[string]float64{"frame_latch": 6452.0 / 720, "heap_tail": 740.0 / 720, "lock_part": 8, "pool_shard": 12928.0 / 720,
				"wal_device": 2}},
		{name: "get_hot_mvcc", tables: []censusTable{{"kv", 20000}}, valueSize: 100, getPermille: 1000, frames: 4096, ops: 2000, mvcc: true,
			acquires: 0, records: 0, logPerUserByte: 0, lines: 1, allocs: 1,
			tiers: map[string]float64{"frame_latch": 2.982, "mvcc_shard": 1, "pool_shard": 5.964}},
		{name: "set_durable_mvcc", tables: []censusTable{{"kv", 20000}}, valueSize: 100, frames: 4096, ops: 200, mvcc: true,
			acquires: 2, records: 2, logPerUserByte: 3.2700, lines: 1, allocs: 4,
			tiers: map[string]float64{"frame_latch": 2.96, "lock_part": 2, "mvcc_shard": 1, "pool_shard": 5.92, "wal_device": 2}},
		{name: "mixed_cold_mvcc", tables: []censusTable{{"kv", 24000}}, valueSize: 1000, getPermille: 800, frames: 1024, ops: 1000, mvcc: true,
			acquires: 0.392, records: 0.392, logPerUserByte: 2.1270, lines: 1, allocs: 1.588,
			tiers: map[string]float64{"frame_latch": 2.991, "lock_part": 0.392, "mvcc_shard": 1, "pool_shard": 7.274, "wal_device": 0.392}},
		{name: "txn_hot_mvcc", tables: []censusTable{{"account", 10000}, {"teller", 10}, {"branch", 1}, {"history", 0}}, valueSize: 100, txn: true, frames: 4096, ops: 720, mvcc: true,
			acquires: 10, records: 3610.0 / 720, logPerUserByte: 2.6949, lines: 6, allocs: 11,
			tiers: map[string]float64{"frame_latch": 6452.0 / 720, "heap_tail": 740.0 / 720, "lock_part": 8, "mvcc_shard": 4, "pool_shard": 12928.0 / 720,
				"wal_device": 2}},
	} {
		t.Run(w.name, func(t *testing.T) {
			cfg := core.Scalable()
			cfg.Dir = t.TempDir()
			cfg.Frames = w.frames
			cfg.MVCC = w.mvcc
			e, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			out := new(bytes.Buffer)
			cc := &censusClient{t: t, c: New(e).newConn(out), out: out, src: rng.New(1).Split(0), w: &w}
			cc.load()
			if w.frames < 4096 && e.StatsSnapshot().Buffer.Evictions == 0 {
				t.Fatal("the load fits the pool: the workload is not cold")
			}

			// One P and no collection from the warm-up on, as
			// testing.AllocsPerRun: a collection empties the sync.Pools,
			// and a goroutine that moves to another P (or a change of
			// GOMAXPROCS) misses a pool's per-P cache; neither refill is
			// the ops' allocation.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for i := 0; i < warmupOps; i++ {
				cc.op()
			}
			before := e.StatsSnapshot()
			cc.lines, cc.valueBytes = 0, 0
			lb, tb := quiet(t, e.Log())
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for i := 0; i < w.ops; i++ {
				cc.op()
			}
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - mallocs
			la, ta := quiet(t, e.Log())
			after := e.StatsSnapshot()
			ops := float64(w.ops)
			tiers := map[string]float64{}
			for tier, n := range ta {
				if d := n - tb[tier]; d > 0 {
					tiers[tier] = float64(d) / ops
				}
			}
			if la.FlushesTick > lb.FlushesTick {
				// Each flush enters the device twice (write, sync) and no
				// other lock; a record reserves its space with one add and
				// enters no log lock.
				entries := func(tier string) uint64 { return ta[tier] - tb[tier] }
				flushes, records := la.Flushes-lb.Flushes, la.Inserts-lb.Inserts
				if entries("wal_device") != 2*flushes || entries("wal_log") != 0 {
					t.Errorf("log tiers %v do not follow from %d flushes and %d records", tiers, flushes, records)
				}
				for _, tier := range []string{"wal_device", "wal_log"} {
					if v, ok := w.tiers[tier]; ok {
						tiers[tier] = v
					} else {
						delete(tiers, tier)
					}
				}
			}
			if !maps.EqualFunc(tiers, w.tiers, func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }) {
				t.Errorf("ranked-lock entries per op %v, want %v", tiers, w.tiers)
			}
			logPerUserByte := 0.0
			if cc.valueBytes > 0 {
				logPerUserByte = float64(after.Log.InsertedBytes-before.Log.InsertedBytes) / float64(cc.valueBytes)
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"lock.acquires_per_op", float64(after.Lock.Acquires-before.Lock.Acquires) / ops, w.acquires},
				{"log records per op", float64(la.Inserts-lb.Inserts) / ops, w.records},
				{"wal.bytes_per_user_byte", logPerUserByte, w.logPerUserByte},
				{"server.round_trips_per_op", float64(cc.lines) / ops, w.lines},
				{"allocations per op", float64(mallocs) / ops, w.allocs},
				{"durable_read_waits per op", float64(after.DurableReadWaits-before.DurableReadWaits) / ops, w.readWaits},
			} {
				if m.name == "allocations per op" && (invariant.Enabled || raceEnabled) {
					continue // the hydradebug assertions allocate; -race drops pooled handles
				}
				if got := fmt.Sprintf("%.4f", m.got); got != fmt.Sprintf("%.4f", m.want) {
					t.Errorf("%s = %s (%.6f), want %.4f", m.name, got, m.got, m.want)
				}
			}
		})
	}
}

// tierOps returns each latch tier's acquisition count so far.
func tierOps() map[string]uint64 {
	m := map[string]uint64{}
	for _, s := range obs.LatchSnapshot() {
		m[s.Tier] = s.Ops
	}
	return m
}

// quiet reads the log's counters and the tier counts at an instant no
// flush is part-way through its locks, as core's census does: the log
// counts a flush only after it entered every lock it takes, and its
// write before the first.
func quiet(t *testing.T, l *wal.Log) (wal.Stats, map[string]uint64) {
	for i := 0; i < 100_000; i++ {
		st := l.StatsSnapshot()
		ops := tierOps()
		if st2 := l.StatsSnapshot(); st.FlushWrites == st.Flushes && st2.FlushWrites == st.FlushWrites {
			return st, ops
		}
		runtime.Gosched()
	}
	t.Fatal("the log never stopped flushing")
	return wal.Stats{}, nil
}
