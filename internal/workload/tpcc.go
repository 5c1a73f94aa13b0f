package workload

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hydra/internal/core"
	"hydra/internal/rng"
)

// TPCC is a reduced TPC-C order-entry workload implementing the two
// transactions that dominate the standard mix: NewOrder (~45%) and
// Payment (~43%), scaled down and keyed into uint64s. It exercises
// multi-table transactions with hot rows (district next-order-id
// counters), realistic for lock-contention experiments.
type TPCC struct {
	Warehouses       int
	DistrictsPerWH   int
	CustomersPerDist int
	Items            int

	Warehouse, District, Customer, Stock *core.Table
	Order, OrderLine, History            *core.Table
	// NewOrderQ holds undelivered orders: key = district<<40 | oid,
	// which makes "oldest undelivered order of a district" a range
	// scan (the TPC-C NEW-ORDER table).
	NewOrderQ *core.Table

	orderSeq   atomic.Uint64
	historySeq atomic.Uint64
}

// Key packing: composite TPC-C keys into uint64.
func (w *TPCC) wKey(wh int) uint64 { return uint64(wh) }
func (w *TPCC) dKey(wh, d int) uint64 {
	return uint64(wh)*uint64(w.DistrictsPerWH) + uint64(d)
}
func (w *TPCC) cKey(wh, d, c int) uint64 {
	return (uint64(wh)*uint64(w.DistrictsPerWH)+uint64(d))*uint64(w.CustomersPerDist) + uint64(c)
}
func (w *TPCC) sKey(wh, item int) uint64 {
	return uint64(wh)*uint64(w.Items) + uint64(item)
}

// districtRecord packs (nextOID, ytd) into 16 bytes.
func districtRecord(nextOID uint64, ytd int64) []byte {
	b := make([]byte, 16)
	copy(b, U64(nextOID))
	copy(b[8:], I64(ytd))
	return b
}

// SetupTPCC creates and loads the reduced TPC-C tables.
func SetupTPCC(e *core.Engine, warehouses, districts, customers, items int) (*TPCC, error) {
	w := &TPCC{
		Warehouses:       warehouses,
		DistrictsPerWH:   districts,
		CustomersPerDist: customers,
		Items:            items,
	}
	for _, t := range []struct {
		name string
		dst  **core.Table
	}{
		{"tpcc_warehouse", &w.Warehouse},
		{"tpcc_district", &w.District},
		{"tpcc_customer", &w.Customer},
		{"tpcc_stock", &w.Stock},
		{"tpcc_order", &w.Order},
		{"tpcc_orderline", &w.OrderLine},
		{"tpcc_history", &w.History},
		{"tpcc_neworder", &w.NewOrderQ},
	} {
		tbl, err := e.CreateTable(t.name)
		if err != nil {
			return nil, err
		}
		*t.dst = tbl
	}
	err := e.Exec(func(tx *core.Txn) error {
		for wh := 0; wh < warehouses; wh++ {
			if err := tx.Insert(w.Warehouse, w.wKey(wh), I64(0)); err != nil {
				return err
			}
			for d := 0; d < districts; d++ {
				if err := tx.Insert(w.District, w.dKey(wh, d), districtRecord(1, 0)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Customers and stock in batches.
	for wh := 0; wh < warehouses; wh++ {
		for d := 0; d < districts; d++ {
			wh, d := wh, d
			err := e.Exec(func(tx *core.Txn) error {
				for c := 0; c < customers; c++ {
					if err := tx.Insert(w.Customer, w.cKey(wh, d, c), I64(0)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		for lo := 0; lo < items; lo += 2000 {
			hi := lo + 2000
			if hi > items {
				hi = items
			}
			wh := wh
			err := e.Exec(func(tx *core.Txn) error {
				for it := lo; it < hi; it++ {
					if err := tx.Insert(w.Stock, w.sKey(wh, it), U64(100)); err != nil {
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

// RunOne executes one transaction drawn from the standard TPC-C mix:
// NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%,
// StockLevel 4%.
func (w *TPCC) RunOne(src *rng.Source, x Executor) error {
	roll := src.Intn(100)
	switch {
	case roll < 45:
		return w.newOrder(src, x)
	case roll < 88:
		return w.payment(src, x)
	case roll < 92:
		return w.orderStatus(src, x)
	case roll < 96:
		return w.delivery(src, x)
	default:
		return w.stockLevel(src, x)
	}
}

// newOrder reads the warehouse, bumps the district's next order id,
// inserts an order, and for 5-15 items decrements stock and inserts
// an order line.
func (w *TPCC) newOrder(src *rng.Source, x Executor) error {
	wh := src.Intn(w.Warehouses)
	d := src.Intn(w.DistrictsPerWH)
	nItems := src.IntRange(5, 15)
	items := make([]int, nItems)
	for i := range items {
		items[i] = src.Intn(w.Items)
	}
	oid := w.orderSeq.Add(1)
	dk := w.dKey(wh, d)
	return x.Run(w.District, dk, func(tx *core.Txn) error {
		drec, err := tx.Read(w.District, dk)
		if err != nil {
			return err
		}
		nextOID := DecU64(drec[:8])
		if err := tx.Update(w.District, dk, districtRecord(nextOID+1, DecI64(drec[8:16]))); err != nil {
			return err
		}
		if err := tx.Insert(w.Order, oid, U64(dk)); err != nil {
			return err
		}
		if err := tx.Insert(w.NewOrderQ, dk<<40|oid, U64(oid)); err != nil {
			return err
		}
		for i, it := range items {
			sk := w.sKey(wh, it)
			srec, err := tx.Read(w.Stock, sk)
			if err != nil {
				return err
			}
			q := DecU64(srec)
			if q < 10 {
				q += 91 // TPC-C restock rule
			}
			if err := tx.Update(w.Stock, sk, U64(q-1)); err != nil {
				return err
			}
			if err := tx.Insert(w.OrderLine, oid*16+uint64(i), U64(sk)); err != nil {
				return err
			}
		}
		return nil
	})
}

// payment updates warehouse, district, and customer YTD amounts and
// appends a history row.
func (w *TPCC) payment(src *rng.Source, x Executor) error {
	wh := src.Intn(w.Warehouses)
	d := src.Intn(w.DistrictsPerWH)
	c := src.Intn(w.CustomersPerDist)
	amount := int64(src.IntRange(1, 5000))
	hkey := w.historySeq.Add(1)
	ck := w.cKey(wh, d, c)
	dk := w.dKey(wh, d)
	return x.Run(w.Customer, ck, func(tx *core.Txn) error {
		if err := addTo(tx, w.Warehouse, w.wKey(wh), amount); err != nil {
			return err
		}
		drec, err := tx.Read(w.District, dk)
		if err != nil {
			return err
		}
		if err := tx.Update(w.District, dk,
			districtRecord(DecU64(drec[:8]), DecI64(drec[8:16])+amount)); err != nil {
			return err
		}
		if err := addTo(tx, w.Customer, ck, amount); err != nil {
			return err
		}
		return tx.Insert(w.History, hkey, I64(amount))
	})
}

// orderStatus reads a customer and, when orders exist, the most
// recently created order's record (read-only).
func (w *TPCC) orderStatus(src *rng.Source, x Executor) error {
	wh := src.Intn(w.Warehouses)
	d := src.Intn(w.DistrictsPerWH)
	c := src.Intn(w.CustomersPerDist)
	ck := w.cKey(wh, d, c)
	return x.Run(w.Customer, ck, func(tx *core.Txn) error {
		if _, err := tx.Read(w.Customer, ck); err != nil {
			return err
		}
		if last := w.orderSeq.Load(); last > 0 {
			oid := uint64(src.Intn(int(last))) + 1
			if _, err := tx.Read(w.Order, oid); err != nil && !errors.Is(err, core.ErrNotFound) {
				return err
			}
		}
		return nil
	})
}

// delivery pops the oldest undelivered order of one district and
// marks it delivered (value flipped to the delivery tag).
func (w *TPCC) delivery(src *rng.Source, x Executor) error {
	wh := src.Intn(w.Warehouses)
	d := src.Intn(w.DistrictsPerWH)
	dk := w.dKey(wh, d)
	lo := dk << 40
	hi := (dk+1)<<40 - 1
	return x.Run(w.District, dk, func(tx *core.Txn) error {
		var qkey, oid uint64
		found := false
		if err := tx.Scan(w.NewOrderQ, lo, hi, func(k uint64, v []byte) bool {
			qkey, oid, found = k, DecU64(v), true
			return false // oldest only
		}); err != nil {
			return err
		}
		if !found {
			return nil // nothing to deliver in this district
		}
		if err := tx.Delete(w.NewOrderQ, qkey); err != nil {
			return err
		}
		// Tag the order delivered: high bit set on its district field.
		return tx.Update(w.Order, oid, U64(dk|1<<63))
	})
}

// stockLevel counts recently touched stock items below a threshold
// (read-only scan).
func (w *TPCC) stockLevel(src *rng.Source, x Executor) error {
	wh := src.Intn(w.Warehouses)
	start := src.Intn(w.Items)
	lo := w.sKey(wh, start)
	threshold := uint64(src.IntRange(10, 20))
	return x.Run(w.Stock, lo, func(tx *core.Txn) error {
		n, low := 0, 0
		err := tx.Scan(w.Stock, lo, w.sKey(wh, w.Items-1), func(k uint64, v []byte) bool {
			if DecU64(v) < threshold {
				low++
			}
			n++
			return n < 20
		})
		_ = low // the benchmark exercises the read path; the count is the query's output
		return err
	})
}

// Check verifies reduced-TPC-C invariants: per-district order counts
// match next-order-id counters, every order has 5-15 lines, and
// payment YTD sums are consistent across levels.
func (w *TPCC) Check(e *core.Engine) error {
	// Orders per district == sum(nextOID - 1).
	var expectedOrders uint64
	err := e.Exec(func(tx *core.Txn) error {
		expectedOrders = 0
		return tx.Scan(w.District, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			expectedOrders += DecU64(v[:8]) - 1
			return true
		})
	})
	if err != nil {
		return err
	}
	var orders uint64
	err = e.Exec(func(tx *core.Txn) error {
		orders = 0
		return tx.Scan(w.Order, 0, ^uint64(0), func(uint64, []byte) bool {
			orders++
			return true
		})
	})
	if err != nil {
		return err
	}
	if orders != expectedOrders {
		return fmt.Errorf("tpcc: %d orders but districts say %d", orders, expectedOrders)
	}
	// Undelivered queue entries must reference existing, untagged
	// orders; delivered orders must be absent from the queue.
	// The orders are read after the queue scan: a Scan callback must not
	// call the engine.
	err = e.Exec(func(tx *core.Txn) error {
		var queued []uint64
		if err := tx.Scan(w.NewOrderQ, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			queued = append(queued, DecU64(v))
			return true
		}); err != nil {
			return err
		}
		for _, oid := range queued {
			ov, err := tx.Read(w.Order, oid)
			if err != nil {
				return fmt.Errorf("tpcc: queued order %d missing: %w", oid, err)
			}
			if DecU64(ov)&(1<<63) != 0 {
				return fmt.Errorf("tpcc: delivered order %d still queued", oid)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Warehouse YTD == district YTD == customer YTD == history sum.
	var whYTD, distYTD, custYTD, histYTD int64
	err = e.Exec(func(tx *core.Txn) error {
		whYTD, distYTD, custYTD, histYTD = 0, 0, 0, 0
		if err := tx.Scan(w.Warehouse, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			whYTD += DecI64(v)
			return true
		}); err != nil {
			return err
		}
		if err := tx.Scan(w.District, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			distYTD += DecI64(v[8:16])
			return true
		}); err != nil {
			return err
		}
		if err := tx.Scan(w.Customer, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			custYTD += DecI64(v)
			return true
		}); err != nil {
			return err
		}
		return tx.Scan(w.History, 0, ^uint64(0), func(_ uint64, v []byte) bool {
			histYTD += DecI64(v)
			return true
		})
	})
	if err != nil {
		return err
	}
	if whYTD != distYTD || distYTD != custYTD || custYTD != histYTD {
		return fmt.Errorf("tpcc: YTD mismatch wh=%d dist=%d cust=%d hist=%d",
			whYTD, distYTD, custYTD, histYTD)
	}
	return nil
}
