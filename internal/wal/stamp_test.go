package wal

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStampPrecedesFill holds the rule the engine's snapshot floor
// rests on: an appender's stamp is stored before its record joins the
// filled prefix, so every record below FilledLSN reads stamped.
// Stamped appenders race a watcher that loads FilledLSN and then notes
// which in-flight records still read unstamped, with the frontier it
// had loaded. Afterwards no record may lie below a frontier loaded
// while it read unstamped.
func TestStampPrecedesFill(t *testing.T) {
	for _, kind := range BufferKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			l := newTestLog(t, kind, NewMem())
			defer l.Close()
			// A record at LSN 0 would read as unstamped: a plain one goes
			// first.
			if _, err := l.AppendFields(RecBegin, 0, NilLSN, 0, 0, nil); err != nil {
				t.Fatal(err)
			}
			const writers, per = 4, 10000
			var (
				stamps  [writers * per]atomic.Uint64
				lsns    [writers * per]uint64
				current [writers]atomic.Int64 // the record each writer is appending
				seen    [writers * per]uint64 // the highest frontier loaded while the stamp read 0
				done    atomic.Bool
				wg      sync.WaitGroup
			)
			watched := make(chan struct{})
			go func() {
				defer close(watched)
				for !done.Load() {
					f := uint64(l.FilledLSN())
					for w := range current {
						if i := current[w].Load(); stamps[i].Load() == 0 {
							seen[i] = max(seen[i], f)
						}
					}
				}
			}()
			payload := make([]byte, 48)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						i := w*per + j
						current[w].Store(int64(i))
						lsn, err := l.AppendFieldsC(RecCommit, uint64(i), NilLSN, 0, 0, payload, &stamps[i], nil)
						if err != nil {
							t.Error(err)
							return
						}
						lsns[i] = uint64(lsn)
					}
				}(w)
			}
			wg.Wait()
			done.Store(true)
			<-watched
			for i := range stamps {
				if got := stamps[i].Load(); got != lsns[i] {
					t.Fatalf("record %d: stamp %d, appended at %d", i, got, lsns[i])
				}
				if lsns[i] < seen[i] {
					t.Fatalf("record %d at LSN %d read unstamped with the filled frontier at %d", i, lsns[i], seen[i])
				}
			}
		})
	}
}
