// Package workload implements the OLTP benchmark kits the experiments
// drive against the storage manager: TATP (telecom), TPC-B (banking
// debit/credit) and a tunable microbenchmark. Each kit provides
// deterministic data loading, a transaction mix, and an invariant
// check.
//
// Transactions run through an Executor, which abstracts the two
// execution models under study: conventional thread-to-transaction
// (core.Engine.Exec under whatever core.Intent the experiment picks)
// and DORA thread-to-data (partitioned executors, no lock table).
package workload

import (
	"encoding/binary"

	"hydra/internal/core"
	"hydra/internal/dora"
)

// Executor runs one transaction body routed by its primary key.
type Executor interface {
	// Run executes fn transactionally. tbl/key describe the dominant
	// row the transaction touches, which data-oriented executors use
	// for routing.
	Run(tbl *core.Table, key uint64, fn func(tx *core.Txn) error) error
}

// TxnExecutor is the thread-to-transaction model: any worker runs any
// transaction through Engine.Exec, and Intent says how it is isolated
// — the zero Intent is two-phase locking through the lock manager,
// Optimistic and ReadOnly let the engine pick snapshot isolation when
// it has MVCC.
type TxnExecutor struct {
	Engine *core.Engine
	Intent core.Intent
}

// Run implements Executor.
func (x TxnExecutor) Run(_ *core.Table, _ uint64, fn func(tx *core.Txn) error) error {
	return x.Engine.Exec(fn, x.Intent)
}

// DoraExecutor is the thread-to-data model: the transaction body is
// shipped to the executor owning the routing key.
type DoraExecutor struct {
	Engine *dora.Engine
}

// Run implements Executor.
func (x DoraExecutor) Run(tbl *core.Table, key uint64, fn func(tx *core.Txn) error) error {
	return x.Engine.ExecSingle(dora.Action{Table: tbl, Key: key, Fn: fn})
}

// U64 encodes v little-endian; the standard value codec of the kits.
func U64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// I64 encodes a signed value.
func I64(v int64) []byte { return U64(uint64(v)) }

// DecU64 decodes U64.
func DecU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// DecI64 decodes I64.
func DecI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }
