package workload

import (
	"fmt"
	"sync/atomic"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
)

// TPCB is the classic debit/credit banking benchmark: every
// transaction updates one account, its teller, its branch, and
// appends a history row. Branch rows are few and hot, which makes
// TPC-B the canonical stress for lock-manager and log contention —
// experiment E4 (single-thread performance vs scalability) runs it.
type TPCB struct {
	Branches int
	// TellersPerBranch and AccountsPerBranch follow the standard
	// 1:10:100,000 scale shape, reduced.
	TellersPerBranch  int
	AccountsPerBranch int

	Branch, Teller, Account, History *core.Table
	historySeq                       atomic.Uint64
}

// SetupTPCB creates and loads the four TPC-B tables.
func SetupTPCB(e *core.Engine, branches, tellersPerBranch, accountsPerBranch int) (*TPCB, error) {
	w := &TPCB{
		Branches:          branches,
		TellersPerBranch:  tellersPerBranch,
		AccountsPerBranch: accountsPerBranch,
	}
	var err error
	if w.Branch, err = e.CreateTable("tpcb_branch"); err != nil {
		return nil, err
	}
	if w.Teller, err = e.CreateTable("tpcb_teller"); err != nil {
		return nil, err
	}
	if w.Account, err = e.CreateTable("tpcb_account"); err != nil {
		return nil, err
	}
	if w.History, err = e.CreateTable("tpcb_history"); err != nil {
		return nil, err
	}
	err = e.Exec(func(tx *core.Txn) error {
		for b := 0; b < branches; b++ {
			if err := tx.Insert(w.Branch, uint64(b), I64(0)); err != nil {
				return err
			}
			for t := 0; t < tellersPerBranch; t++ {
				if err := tx.Insert(w.Teller, w.tellerKey(b, t), I64(0)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Accounts in batches (there can be many).
	for b := 0; b < branches; b++ {
		for lo := 0; lo < accountsPerBranch; lo += 2000 {
			hi := lo + 2000
			if hi > accountsPerBranch {
				hi = accountsPerBranch
			}
			err := e.Exec(func(tx *core.Txn) error {
				for a := lo; a < hi; a++ {
					if err := tx.Insert(w.Account, w.accountKey(b, a), I64(0)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *TPCB) tellerKey(branch, teller int) uint64 {
	return uint64(branch)*uint64(w.TellersPerBranch) + uint64(teller)
}

func (w *TPCB) accountKey(branch, account int) uint64 {
	return uint64(branch)*uint64(w.AccountsPerBranch) + uint64(account)
}

// RunOne executes one debit/credit transaction.
func (w *TPCB) RunOne(src *rng.Source, x Executor) error {
	b := src.Intn(w.Branches)
	t := src.Intn(w.TellersPerBranch)
	a := src.Intn(w.AccountsPerBranch)
	delta := int64(src.IntRange(-99999, 99999))
	hkey := w.historySeq.Add(1)
	accKey := w.accountKey(b, a)
	return x.Run(w.Account, accKey, func(tx *core.Txn) error {
		if err := addTo(tx, w.Account, accKey, delta); err != nil {
			return err
		}
		if err := addTo(tx, w.Teller, w.tellerKey(b, t), delta); err != nil {
			return err
		}
		if err := addTo(tx, w.Branch, uint64(b), delta); err != nil {
			return err
		}
		return tx.Insert(w.History, hkey, I64(delta))
	})
}

func addTo(tx *core.Txn, tbl *core.Table, key uint64, delta int64) error {
	// X up front: read-modify-write through an S lock would deadlock
	// on hot rows during the upgrade.
	v, err := tx.ReadForUpdate(tbl, key)
	if err != nil {
		return err
	}
	return tx.Update(tbl, key, I64(DecI64(v)+delta))
}

// Check verifies the TPC-B consistency condition: the sum of account
// balances equals the sum of teller balances equals the sum of branch
// balances equals the sum of history deltas.
func (w *TPCB) Check(e *core.Engine) error {
	sums := make(map[*core.Table]int64, 4)
	for _, tbl := range []*core.Table{w.Branch, w.Teller, w.Account, w.History} {
		var sum int64
		err := e.Exec(func(tx *core.Txn) error {
			sum = 0
			return tx.Scan(tbl, 0, ^uint64(0), func(_ uint64, v []byte) bool {
				sum += DecI64(v)
				return true
			})
		})
		if err != nil {
			return err
		}
		sums[tbl] = sum
	}
	if sums[w.Branch] != sums[w.Teller] || sums[w.Teller] != sums[w.Account] || sums[w.Account] != sums[w.History] {
		return fmt.Errorf("tpcb: balance mismatch: branch=%d teller=%d account=%d history=%d",
			sums[w.Branch], sums[w.Teller], sums[w.Account], sums[w.History])
	}
	return nil
}

// RunOneDora executes one debit/credit transaction as a DORA
// multi-action transaction: the account, teller, branch, and history
// mutations each run on the executor owning their key, in a single
// phase, isolated by the transaction's claims on those executors.
func (w *TPCB) RunOneDora(src *rng.Source, d *dora.Engine) error {
	b := src.Intn(w.Branches)
	t := src.Intn(w.TellersPerBranch)
	a := src.Intn(w.AccountsPerBranch)
	delta := int64(src.IntRange(-99999, 99999))
	hkey := w.historySeq.Add(1)
	accKey := w.accountKey(b, a)
	telKey := w.tellerKey(b, t)
	brKey := uint64(b)
	return d.Exec([]dora.Phase{{
		{Table: w.Account, Key: accKey, Fn: func(tx *core.Txn) error {
			return addTo(tx, w.Account, accKey, delta)
		}},
		{Table: w.Teller, Key: telKey, Fn: func(tx *core.Txn) error {
			return addTo(tx, w.Teller, telKey, delta)
		}},
		{Table: w.Branch, Key: brKey, Fn: func(tx *core.Txn) error {
			return addTo(tx, w.Branch, brKey, delta)
		}},
		{Table: w.History, Key: hkey, Fn: func(tx *core.Txn) error {
			return tx.Insert(w.History, hkey, I64(delta))
		}},
	}})
}
