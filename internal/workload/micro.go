package workload

import (
	"errors"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/rng"
)

// Micro is a tunable key-value microbenchmark: N keys, a read/write
// mix, and optional zipfian skew. Experiments use it when they need a
// single knob (contention) isolated from benchmark semantics.
type Micro struct {
	Keys      uint64
	WriteFrac float64 // fraction of operations that update
	Theta     float64 // zipf exponent; 0 = uniform
	ValueSize int

	// HotKeys/HotFrac overlay a dial-a-contention hot set on the base
	// distribution: a draw lands uniformly in the first HotKeys keys
	// with probability HotFrac, and falls through to the base (zipf or
	// uniform) draw otherwise. HotFrac 0 disables the overlay. The
	// crossover experiments sweep HotFrac to find the skew where
	// thread-to-data execution overtakes the shared lock manager.
	HotKeys uint64
	HotFrac float64

	// SnapFrac runs that fraction of read operations on Engine with
	// read-only intent instead of through the Executor: on an engine
	// with core.Config.MVCC they become lock-free snapshot reads. The
	// read-mostly crossover experiment sweeps it to show lock traffic
	// flat-lining while hydra_mvcc_snapshot_reads climbs.
	SnapFrac float64

	// SIFrac runs that fraction of write operations on Engine with
	// optimistic intent instead of through the Executor: with
	// core.Config.MVCC that is snapshot isolation (snapshot read,
	// buffered write, commit-time first-committer-wins validation,
	// conflict victims retried by Exec). The SI crossover experiment
	// sweeps hot-set contention to measure the conflict-abort rate
	// against locked-writer throughput.
	SIFrac float64

	Engine *core.Engine
	Table  *core.Table

	// rmws counts the read-modify-writes that committed, striped so the
	// count does not become a hot word of the contention it measures.
	rmws obs.Counter
}

// SetupMicro creates and loads the microbenchmark table.
func SetupMicro(e *core.Engine, keys uint64, writeFrac, theta float64, valueSize int) (*Micro, error) {
	if valueSize < 8 {
		valueSize = 8
	}
	w := &Micro{Keys: keys, WriteFrac: writeFrac, Theta: theta, ValueSize: valueSize, Engine: e}
	var err error
	if w.Table, err = e.CreateTable("micro_kv"); err != nil {
		return nil, err
	}
	src := rng.New(91)
	for lo := uint64(0); lo < keys; lo += 2000 {
		hi := lo + 2000
		if hi > keys {
			hi = keys
		}
		err := e.Exec(func(tx *core.Txn) error {
			for k := lo; k < hi; k++ {
				v := make([]byte, valueSize)
				src.Bytes(v)
				copy(v, U64(0))
				if err := tx.Insert(w.Table, k, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Sampler draws keys for one worker; create one per goroutine.
type Sampler struct {
	src     *rng.Source
	zipf    *rng.Zipf
	keys    uint64
	hotKeys uint64
	hotFrac float64
}

// NewSampler returns a key sampler seeded per worker. It captures the
// workload's hot-set knobs, so set HotKeys/HotFrac before creating
// samplers.
func (w *Micro) NewSampler(seed uint64) *Sampler {
	src := rng.New(seed)
	s := &Sampler{src: src, keys: w.Keys, hotKeys: w.HotKeys, hotFrac: w.HotFrac}
	if s.hotKeys == 0 || s.hotKeys > w.Keys {
		s.hotKeys = w.Keys
	}
	if w.Theta > 0 {
		s.zipf = rng.NewZipf(src.Split(1), w.Keys, w.Theta)
	}
	return s
}

// Next draws a key.
func (s *Sampler) Next() uint64 {
	if s.hotFrac > 0 && s.src.Float64() < s.hotFrac {
		return uint64(s.src.Intn(int(s.hotKeys)))
	}
	if s.zipf != nil {
		return s.zipf.Next()
	}
	return uint64(s.src.Intn(int(s.keys)))
}

// RunOne executes one read or read-modify-write operation. A conflict
// that survives every retry of an optimistic write surfaces to the
// harness as an aborted operation.
func (w *Micro) RunOne(s *Sampler, x Executor) error {
	k := s.Next()
	if s.src.Float64() >= w.WriteFrac {
		read := func(tx *core.Txn) error {
			// Misses are tolerated on either read path.
			if _, err := tx.Read(w.Table, k); err != nil && !errors.Is(err, core.ErrNotFound) {
				return err
			}
			return nil
		}
		if w.SnapFrac > 0 && s.src.Float64() < w.SnapFrac {
			return w.Engine.Exec(read, core.Intent{ReadOnly: true})
		}
		return x.Run(w.Table, k, read)
	}
	rmw := func(tx *core.Txn) error {
		v, err := tx.ReadForUpdate(w.Table, k)
		if err != nil {
			return err
		}
		copy(v, U64(DecU64(v)+1))
		return tx.Update(w.Table, k, v)
	}
	var err error
	if w.SIFrac > 0 && s.src.Float64() < w.SIFrac {
		err = w.Engine.Exec(rmw, core.Intent{Optimistic: true})
	} else {
		err = x.Run(w.Table, k, rmw)
	}
	if err == nil {
		w.rmws.Inc()
	}
	return err
}

// Check verifies that no write was lost or doubled: the per-key write
// counters (the first 8 bytes of each value) sum to the number of
// read-modify-writes RunOne saw commit.
func (w *Micro) Check(e *core.Engine) error {
	var total uint64
	if err := e.Exec(func(tx *core.Txn) error {
		total = 0
		return tx.Scan(w.Table, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			total += DecU64(v)
			return true
		})
	}); err != nil {
		return err
	}
	if want := w.rmws.Load(); total != want {
		return fmt.Errorf("micro: write counters sum to %d, %d read-modify-writes committed", total, want)
	}
	return nil
}
