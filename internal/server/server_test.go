package server

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/lock"
	"hydra/internal/wal"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		e.Close()
	})
	return s, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingAndCRUD(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 1, "hello world"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("kv", 1)
	if err != nil || v != "hello world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := c.Set("kv", 1, "updated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get("kv", 1); v != "updated" {
		t.Fatalf("after upsert: %q", v)
	}
	if err := c.Del("kv", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("kv", 1); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestScanProtocol(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 20; i++ {
		if err := c.Set("kv", i, "v"); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Scan("kv", 5, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 || rows[0].Key != 5 || rows[10].Key != 15 {
		t.Fatalf("scan rows: %+v", rows)
	}
	// Max cap honored.
	rows, err = c.Scan("kv", 0, 19, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("capped scan returned %d", len(rows))
	}
}

func TestExplicitTransactions(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 1, "in-txn"); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("kv", 1); err == nil {
		t.Fatal("aborted write visible")
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 2, "committed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("kv", 2); err != nil || v != "committed" {
		t.Fatalf("committed read: %q, %v", v, err)
	}
}

// A wire COMMIT that fails must not leak the transaction: the server
// aborts the still-active handle, so its row locks are free for the
// next connection instead of costing it a lock timeout. Conventional
// keeps the locks across the flush wait (no ELR), which is the case
// that used to leak.
func TestFailedWireCommitReleasesLocks(t *testing.T) {
	cfg := core.Conventional()
	dev := wal.NewMem()
	e, err := core.OpenWith(cfg, buffer.NewMemStore(), dev)
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		e.Close()
	})
	c1, c2 := dial(t, ln.Addr().String()), dial(t, ln.Addr().String())
	if err := c1.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Set("kv", 1, "base"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Set("kv", 1, "doomed"); err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(1, errors.New("injected device death"))
	if err := c1.Commit(); err == nil || !strings.Contains(err.Error(), "injected device death") {
		t.Fatalf("COMMIT on a dead log device: %v", err)
	}
	if st := e.StatsSnapshot(); st.Aborts != 1 {
		t.Fatalf("aborts = %d after the failed COMMIT, want 1", st.Aborts)
	}
	// A second connection gets the row's lock at once (cfg.LockTimeout
	// is 2 s; a leaked X lock would turn this GET into an -ERR after
	// it). The log is dead, so the rollback was left to restart
	// recovery and the value read is not asserted.
	start := time.Now()
	if _, err := c2.Get("kv", 1); err != nil {
		t.Fatalf("row still locked after the failed COMMIT: %v", err)
	}
	if d := time.Since(start); d > cfg.LockTimeout/2 {
		t.Fatalf("second connection waited %v for the row lock", d)
	}
	// And the first connection is back in autocommit mode.
	if err := c1.Begin(); err != nil {
		t.Fatalf("BEGIN after a failed COMMIT: %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("kv"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := c.Get("nope", 1); err == nil {
		t.Fatal("missing table accepted")
	}
	if err := c.Commit(); err == nil {
		t.Fatal("commit without begin accepted")
	}
	reply, err := c.roundTrip("GIBBERISH")
	if err != nil || !strings.HasPrefix(reply, "-ERR") {
		t.Fatalf("gibberish reply: %q, %v", reply, err)
	}
	reply, _ = c.roundTrip("SET kv notanumber x")
	if !strings.HasPrefix(reply, "-ERR") {
		t.Fatalf("bad key accepted: %q", reply)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	admin := dial(t, addr)
	if err := admin.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	const clients, per = 8, 50
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(cl * 1000)
			for i := uint64(0); i < per; i++ {
				if err := c.Set("kv", base+i, "x"); err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	rows, err := admin.Scan("kv", 0, ^uint64(0), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != clients*per {
		t.Fatalf("rows = %d, want %d", len(rows), clients*per)
	}
	stats, err := admin.Stats()
	if err != nil || !strings.Contains(stats, "commits=") {
		t.Fatalf("stats: %q, %v", stats, err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCheckpointCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 10; i++ {
		c.Set("kv", i, "x")
	}
	reply, err := c.roundTrip("CHECKPOINT")
	if err != nil || reply != "+OK" {
		t.Fatalf("CHECKPOINT reply = %q, %v", reply, err)
	}
	// Data still readable afterwards.
	if v, err := c.Get("kv", 3); err != nil || v != "x" {
		t.Fatalf("get after checkpoint: %q, %v", v, err)
	}
}

func TestClientRaw(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	reply, err := c.Raw("PING")
	if err != nil || reply != "PONG" {
		t.Fatalf("Raw(PING) = %q, %v", reply, err)
	}
	if _, err := c.Raw("NONSENSE"); err == nil {
		t.Fatal("Raw accepted nonsense")
	}
	reply, err = c.Raw("CHECKPOINT")
	if err != nil || reply != "OK" {
		t.Fatalf("Raw(CHECKPOINT) = %q, %v", reply, err)
	}
}

func TestBackupCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 25; i++ {
		c.Set("kv", i, "x")
	}
	path := t.TempDir() + "/backup.hydra"
	if _, err := c.Raw("BACKUP " + path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	if err := core.RestoreInto(f, store, dev); err != nil {
		t.Fatal(err)
	}
	e2, err := core.OpenWith(core.Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl, err := e2.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	e2.Exec(func(tx *core.Txn) error {
		n := 0
		tx.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
		if n != 25 {
			t.Fatalf("restored rows = %d", n)
		}
		return nil
	})
}

// A transaction that finds its table idle at its 64th row holds the
// table until it ends: another connection's GET waits for the COMMIT.
// One that finds somebody there — an open transaction that has read a
// row is enough — keeps to row locks, and the two never meet.
func TestBulkTransactionAndItsNeighbours(t *testing.T) {
	s, addr := startServer(t)
	a, b := dial(t, addr), dial(t, addr)
	locks := func() lock.Stats { return s.engine.StatsSnapshot().Lock }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	load := func(from uint64) {
		t.Helper()
		must(a.Begin())
		for k := from; k < from+100; k++ {
			must(a.Set("kv", k, "bulk"))
		}
	}
	must(a.CreateTable("kv"))
	must(a.Set("kv", 1, "seed"))

	// Alone: the table is A's from row 64 on.
	load(1000)
	if st := locks(); st.Escalations != 1 || st.EscalationRefusals != 0 {
		t.Fatalf("100 rows on an idle table: escalations %d, refusals %d", st.Escalations, st.EscalationRefusals)
	}
	waits := locks().Waits
	got := make(chan string, 1)
	go func() {
		v, err := b.Get("kv", 1)
		if err != nil {
			v = "error: " + err.Error()
		}
		got <- v
	}()
	for deadline := time.Now().Add(time.Second); locks().Waits == waits; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("B's GET never waited for A's table lock")
		}
	}
	select {
	case v := <-got:
		t.Fatalf("B's GET answered %q inside A's open transaction", v)
	default:
	}
	must(a.Commit())
	if v := <-got; v != "seed" {
		t.Fatalf("B's GET after A's COMMIT: %q", v)
	}

	// Not alone: B is inside a transaction on the table first.
	must(b.Begin())
	if v, err := b.Get("kv", 1); err != nil || v != "seed" {
		t.Fatalf("B's GET in its own transaction: %q, %v", v, err)
	}
	before := locks()
	load(2000)
	st := locks()
	if st.Escalations != before.Escalations || st.EscalationRefusals != before.EscalationRefusals+1 {
		t.Fatalf("100 rows beside B: escalations +%d, refusals +%d; want 0, 1",
			st.Escalations-before.Escalations, st.EscalationRefusals-before.EscalationRefusals)
	}
	if v, err := b.Get("kv", 1050); err != nil || v != "bulk" { // a row A committed, not one it holds
		t.Fatalf("B's second GET beside A's open transaction: %q, %v", v, err)
	}
	if st := locks(); st.Waits != before.Waits {
		t.Fatalf("somebody waited (%d waits) although A kept to row locks", st.Waits-before.Waits)
	}
	must(a.Commit())
	must(b.Commit())
}
