package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// liveCount returns how many live-registry slots are claimed.
func liveCount(e *Engine) int {
	n := 0
	for s := e.live.head.Load(); s != nil; s = s.next {
		if s.owner.Load() != 0 {
			n++
		}
	}
	return n
}

// TestPinUnderRaces races the pin protocol (Engine.pin): snapshot
// readers and snapshot-isolation writers pin and finish, 2PL writers
// commit versions (each leave advances the floor), and the SI commits'
// leaves and the MaxSnapshotAge expirer (1 ns, so every sampled check
// expires every pin) raise the oldest-pin mirror. The oracle runs on
// every prune, with its horizon: it walks the slots and fails if the
// horizon passes a pin its transaction holds — one whose Begin returned
// (pinned), not yet finished and not expired. A pin that is still
// re-checking itself may lie below a horizon; it then retries.
func TestPinUnderRaces(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Nanosecond
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	const rows = 16
	for k := uint64(0); k < rows; k++ {
		if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, k, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}

	// Grow the registry first: a raise's walk over many slots is a
	// window a pin can land in behind it.
	var grown []*Txn
	for range 128 {
		grown = append(grown, e.Begin(Intent{ReadOnly: true}))
	}
	for _, tx := range grown {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	var pinned sync.Map // txn id -> the snapshot its Begin returned with
	var checked, passed atomic.Int64
	var first atomic.Pointer[string]
	testHookPrune = func(w uint64) {
		runtime.Gosched() // let pins register between the horizon and the walk
		for s := e.live.head.Load(); s != nil; s = s.next {
			id := s.owner.Load()
			p := s.pin.Load()
			if v, ok := pinned.Load(id); !ok || v.(uint64) != p {
				continue
			}
			checked.Add(1)
			if w > p && s.expired.Load() != id {
				passed.Add(1)
				msg := fmt.Sprintf("a prune's horizon %d passed transaction %d's pin %d", w, id, p)
				first.CompareAndSwap(nil, &msg)
			}
		}
	}
	defer func() { testHookPrune = nil }()

	// begin pins a snapshot and registers it with the oracle; end
	// unregisters it before the transaction finishes.
	begin := func(in Intent) *Txn {
		tx := e.Begin(in)
		pinned.Store(tx.id, tx.snap)
		return tx
	}
	end := func(tx *Txn, commit bool) error {
		pinned.Delete(tx.id)
		if commit {
			return tx.Commit()
		}
		return tx.Abort()
	}
	expiredOK := func(err error) bool {
		return err == nil || errors.Is(err, ErrSnapshotExpired) || errors.Is(err, ErrWriteConflict)
	}

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	run := func(body func(src *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rand.New(rand.NewPCG(rand.Uint64(), 1))
			for time.Now().Before(deadline) {
				if err := body(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 3 { // snapshot readers
		run(func(src *rand.Rand) error {
			tx := begin(Intent{ReadOnly: true})
			var err error
			for i := 0; i < 3 && err == nil; i++ {
				runtime.Gosched()
				_, err = tx.Read(tbl, src.Uint64N(rows))
			}
			if cerr := end(tx, true); cerr != nil {
				return cerr
			}
			if !expiredOK(err) {
				return fmt.Errorf("snapshot read: %w", err)
			}
			return nil
		})
	}
	run(func(src *rand.Rand) error { // snapshot-isolation writer
		tx := begin(Intent{Optimistic: true})
		if err := tx.Update(tbl, src.Uint64N(rows), []byte("si")); !expiredOK(err) {
			end(tx, false)
			return fmt.Errorf("SI update: %w", err)
		}
		if err := end(tx, true); err != nil {
			if !expiredOK(err) {
				return fmt.Errorf("SI commit: %w", err)
			}
			return tx.Abort()
		}
		return nil
	})
	for range 2 { // 2PL writers
		run(func(src *rand.Rand) error {
			return e.Exec(func(tx *Txn) error { return tx.Update(tbl, src.Uint64N(rows), []byte("2pl")) })
		})
	}
	wg.Wait()
	if msg := first.Load(); msg != nil {
		t.Fatalf("%d of %d pin checks failed; the first: %s", passed.Load(), checked.Load(), *msg)
	}
	if checked.Load() == 0 {
		t.Fatal("no prune ever found a pin to check")
	}
	st := e.StatsSnapshot().Mvcc
	if st.SnapshotsExpired == 0 || st.GCNodes == 0 {
		t.Fatalf("the expirer or the GC never ran: %+v", st)
	}
	t.Logf("%d pin checks, %d expiries, %d nodes pruned", checked.Load(), st.SnapshotsExpired, st.GCNodes)
}

// An expiry that lands after its transaction left never expires the
// next owner of the slot: the expirer reads the slot, the pinned
// transaction finishes, a fresh snapshot transaction claims the same
// slot, and only then does the expirer mark it. The fresh transaction
// reads and commits, and its pin holds the watermark; the next expiry
// does expire it.
func TestExpiryNeverLandsOnARecycledSlot(t *testing.T) {
	cfg := mvccConfig()
	cfg.MaxSnapshotAge = time.Nanosecond
	e := memEngine(t, cfg)
	tbl, _ := e.CreateTable("t")
	if err := e.Exec(func(tx *Txn) error { return tx.Insert(tbl, 1, []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	old := e.Begin(Intent{ReadOnly: true})
	var fresh *Txn
	testHookExpire = func() {
		testHookExpire = nil
		slot := old.slot
		if err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		fresh = e.Begin(Intent{ReadOnly: true})
		if fresh.slot != slot {
			t.Fatal("the fresh transaction claimed another slot")
		}
	}
	defer func() { testHookExpire = nil }()
	e.expireStaleSnapshots()
	if fresh == nil {
		t.Fatal("the expirer never reached the pinned slot")
	}
	if fresh.expired() {
		t.Fatal("the expiry landed on the slot's next owner")
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Update(tbl, 1, []byte("v1")) }); err != nil {
		t.Fatal(err)
	}
	if w := e.mvcc.watermark(); w > fresh.snap {
		t.Fatalf("watermark %d passed the fresh pin %d", w, fresh.snap)
	}
	if v, err := fresh.Read(tbl, 1); err != nil || string(v) != "v0" {
		t.Fatalf("fresh snapshot read %q, %v; want v0", v, err)
	}
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}

	// A stale mark does not stop the slot's owner from being expired.
	again := e.Begin(Intent{ReadOnly: true})
	if n := e.expireStaleSnapshots(); n != 1 || !again.expired() {
		t.Fatalf("expired %d pins (owner's mark %v), want 1", n, again.expired())
	}
	if err := again.Commit(); err != nil {
		t.Fatal(err)
	}
}
