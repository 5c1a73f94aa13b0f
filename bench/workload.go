package main

import (
	"bytes"
	"fmt"
	"strconv"

	"hydra/internal/rng"
)

// tableSpec is one table a workload loads before it runs.
type tableSpec struct {
	name string
	rows int // loaded with keys 0..rows-1
}

// workload is one traffic mix. The four below are the benchmark of
// record; their reasons are recorded in BENCHMARK.json and README.md.
type workload struct {
	name      string
	tables    []tableSpec
	valueSize int // every value is exactly this long, so SETs update in place
	// getPermille of the ops are autocommit GETs; the rest are
	// autocommit SETs. Ignored when txn is set.
	getPermille int
	// txn makes every op the TPC-B-shaped explicit transaction over
	// tables account, teller, branch, history (in that fixed order).
	txn bool
	// hot says the data fits the buffer pool many times over, cold that
	// it is several pools large; the validity assertions differ.
	cold bool
	// traceOps is the fixed op count of each traced pass. Fixed, not
	// timed, so a single client's counts repeat exactly; sized so four
	// passes fit the run-time cap on an fsync-bound sandbox.
	traceOps int
}

var workloads = []workload{
	{
		name:        "get_hot",
		tables:      []tableSpec{{"kv", 20000}},
		valueSize:   100,
		getPermille: 1000,
		traceOps:    20000,
	},
	{
		name:        "set_durable",
		tables:      []tableSpec{{"kv", 20000}},
		valueSize:   100,
		getPermille: 0,
		traceOps:    2500,
	},
	{
		name:        "mixed_cold",
		tables:      []tableSpec{{"kv", 86000}},
		valueSize:   1000,
		getPermille: 800,
		cold:        true,
		traceOps:    8000,
	},
	{
		name:      "txn_hot",
		tables:    []tableSpec{{"account", 10000}, {"teller", 10}, {"branch", 1}, {"history", 0}},
		valueSize: 100,
		txn:       true,
		traceOps:  2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stmt is one data verb of an op.
type stmt struct {
	get   bool // GET, else SET
	table string
	key   uint64
	// seq and pad reconstruct the SET value (see appendValue): the
	// durability check keeps them per key instead of the value bytes.
	seq uint64
	pad int
}

// op is one closed-loop unit of work: a single autocommit statement,
// or (txn) BEGIN; stmts...; COMMIT.
type op struct {
	txn   bool
	stmts []stmt
}

// historyBase is the first history key of a client: client<<40 | seq.
func historyBase(client int) uint64 { return uint64(client) << 40 }

const padWindow = 4096

// generator produces one client's op stream. Everything random comes
// from internal/rng seeded by (seed, client): the same pair gives the
// same stream, byte for byte.
type generator struct {
	w       *workload
	client  int
	clients int
	src     *rng.Source
	seq     uint64 // values written so far; also the history sequence
	pad     []byte // seeded filler, sliced at a random offset per value
	cur     op
	stmts   [4]stmt
}

func newGenerator(w *workload, seed uint64, client, clients int) *generator {
	src := rng.New(seed).Split(uint64(client))
	g := &generator{w: w, client: client, clients: clients, src: src}
	g.pad = makePad(src.Split(1<<32), padWindow+w.valueSize)
	return g
}

// makePad returns n seeded bytes from an alphabet without whitespace
// (the wire protocol re-joins fields on single spaces) or ':' (the
// value's own field separator).
func makePad(src *rng.Source, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[src.Intn(len(alphabet))]
	}
	return b
}

// ownKey picks a key of [0, rows) that only this client writes, so the
// last acknowledged value of every key is known without coordination.
func (g *generator) ownKey(rows int) uint64 {
	if rows < g.clients {
		return uint64(g.src.Intn(rows)) // contended on purpose (teller, branch)
	}
	per := rows / g.clients
	return uint64(g.src.Intn(per)*g.clients + g.client)
}

func (g *generator) set(table string, key uint64) stmt {
	g.seq++
	return stmt{table: table, key: key, seq: g.seq, pad: g.src.Intn(padWindow)}
}

// next returns the next op; it is valid until the following call.
func (g *generator) next() *op {
	w := g.w
	if w.txn {
		g.stmts[0] = g.set("account", uint64(g.src.Intn(w.tables[0].rows)))
		g.stmts[1] = g.set("teller", uint64(g.src.Intn(w.tables[1].rows)))
		g.stmts[2] = g.set("branch", 0)
		g.stmts[3] = g.set("history", 0)
		g.stmts[3].key = historyBase(g.client) | g.stmts[3].seq
		g.cur = op{txn: true, stmts: g.stmts[:4]}
		return &g.cur
	}
	t := w.tables[0]
	if g.src.Intn(1000) < w.getPermille {
		g.stmts[0] = stmt{get: true, table: t.name, key: uint64(g.src.Intn(t.rows))}
	} else {
		g.stmts[0] = g.set(t.name, g.ownKey(t.rows))
	}
	g.cur = op{stmts: g.stmts[:1]}
	return &g.cur
}

// appendValue appends the self-describing value
// <key>:<client>:<seq>:<padding>, exactly size bytes long.
func appendValue(dst []byte, key uint64, client string, seq uint64, size int, pad []byte, off int) []byte {
	start := len(dst)
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, ':')
	dst = append(dst, client...)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ':')
	n := size - (len(dst) - start)
	if n < 0 {
		panic("bench: value size too small for its own header")
	}
	return append(dst, pad[off:off+n]...)
}

// value appends the value of a SET statement of this generator.
func (g *generator) value(dst []byte, s *stmt) []byte {
	return appendValue(dst, s.key, strconv.Itoa(g.client), s.seq, g.w.valueSize, g.pad, s.pad)
}

// appendRequest appends the wire line of s (with its newline).
func (g *generator) appendRequest(dst []byte, s *stmt) []byte {
	if s.get {
		dst = append(dst, "GET "...)
	} else {
		dst = append(dst, "SET "...)
	}
	dst = append(dst, s.table...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, s.key, 10)
	if !s.get {
		dst = append(dst, ' ')
		dst = g.value(dst, s)
	}
	return append(dst, '\n')
}

// checkValue reports whether v is a well-formed value for key: the
// right length and the key as its first field.
func checkValue(v []byte, key uint64, size int) bool {
	if len(v) != size {
		return false
	}
	var buf [24]byte
	want := append(strconv.AppendUint(buf[:0], key, 10), ':')
	return bytes.HasPrefix(v, want)
}

// loader yields the rows a table starts with: keys in order, values
// written by the pseudo-client "L".
type loader struct {
	size int
	pad  []byte
	src  *rng.Source
}

func newLoader(w *workload, seed uint64) *loader {
	src := rng.New(seed).Split(1 << 20)
	return &loader{size: w.valueSize, src: src, pad: makePad(src.Split(1<<32), padWindow+w.valueSize)}
}

func (l *loader) value(dst []byte, key uint64) []byte {
	return appendValue(dst, key, "L", 0, l.size, l.pad, l.src.Intn(padWindow))
}
