package tpcc

import (
	"errors"
	"fmt"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/ts"
)

// errRollback is the intentional 1% New-Order rollback of TPC-C clause
// 2.4.1.4 (an unused item number), exercising the engine's undo path under
// load.
var errRollback = errors.New("tpcc: intentional rollback (invalid item)")

// Every profile runs under a standard retry policy: transient failures —
// write-write conflicts, writes rejected under version-space pressure — back
// off and re-run the whole profile. Profile closures must therefore reset any
// state they populate at the top of each attempt.
//
// The budget has to outlast a stalled winner. A conflict's other side is a
// worker holding an uncommitted head, and on a saturated 2-CPU box that
// worker can sit mid-transaction for longer than 10 ms (measured on
// shard_cross: five attempts over 4.6–11.3 ms all met the same uncommitted
// head while its shard committed nothing). Ten attempts let the jittered
// windows (0.5 ms, doubling) reach core.Retry's 100 ms cap: ≈ 114 ms of
// backoff in the mean, 228 ms at most.
const (
	txnRetries = 10
	retryBase  = 500 * time.Microsecond
)

// getDecoded loads and decodes one row.
func getDecoded[T any](tx Txn, tid ts.TableID, rid ts.RID, decode func([]byte) (T, error)) (T, error) {
	var zero T
	img, err := tx.Get(tid, rid)
	if err != nil {
		return zero, err
	}
	return decode(img)
}

// newOrderResult carries the driver-state updates applied after commit.
type newOrderResult struct {
	dist       uint32
	oid        uint32
	cid        uint32
	orderRID   ts.RID
	noRID      ts.RID
	olRIDs     []ts.RID
	rolledBack bool
}

// NewOrder runs one New-Order transaction against the worker's home
// warehouse. It reads warehouse/district/customer, increments the
// district's next order id, inserts ORDERS, NEW-ORDER and one ORDER-LINE
// per item, and updates each item's STOCK row (the update stream Figure 13
// attributes the stable chain count to).
func (wk *Worker) NewOrder() error {
	d := wk.d
	r := wk.r
	dist := uint32(randRange(r, 1, d.cfg.Districts))
	cid := d.nu.randCustomerID(r, d.cfg.CustomersPerDistrict)
	olCnt := randRange(r, 5, 15)
	rollback := r.Intn(100) == 0

	// TPC-C clause 2.4.1.5: 1% of order lines draw stock from a remote supply
	// warehouse (when enabled), making ~10% of New-Orders remote overall.
	// Remote supply decided before Begin so the routing path is fixed per
	// profile: home-only orders pin to the home shard's fast path.
	supply := make([]uint32, olCnt)
	remote := false
	for i := range supply {
		supply[i] = wk.w
		if d.cfg.CrossWarehouse && d.cfg.Warehouses > 1 && r.Intn(100) == 0 {
			supply[i] = wk.remoteWarehouse()
			remote = true
			if d.crossesShard(wk.w, supply[i]) {
				wk.cross = true
			}
		}
	}
	homeHint := d.shardOfW(wk.w)

	var res newOrderResult
	err := d.execRetryOn(wk.w, remote, func(tx Txn) error {
		// Reset per attempt: a retried attempt must not keep RIDs (olRIDs
		// especially) accumulated by the conflicted one.
		res = newOrderResult{dist: dist, cid: cid}
		if _, err := getDecoded(tx, d.t.warehouse, d.warehouseRID(wk.w), DecodeWarehouse); err != nil {
			return err
		}
		drow, err := getDecoded(tx, d.t.district, d.districtRID(wk.w, dist), DecodeDistrict)
		if err != nil {
			return err
		}
		res.oid = drow.NextOID
		drow.NextOID++
		if err := tx.Update(d.t.district, d.districtRID(wk.w, dist), drow.Encode()); err != nil {
			return err
		}
		if _, err := getDecoded(tx, d.t.customer, d.customerRID(wk.w, dist, cid), DecodeCustomer); err != nil {
			return err
		}
		order := Order{W: wk.w, D: dist, ID: res.oid, CID: cid,
			EntryD: time.Now().UnixNano(), OLCnt: uint32(olCnt), AllLocal: !remote}
		res.orderRID, err = insertAt(tx, d.t.orders, order.Encode(), homeHint)
		if err != nil {
			return err
		}
		no := NewOrderRow{W: wk.w, D: dist, OID: res.oid}
		res.noRID, err = insertAt(tx, d.t.newOrder, no.Encode(), homeHint)
		if err != nil {
			return err
		}
		for line := 1; line <= olCnt; line++ {
			if rollback && line == olCnt {
				return errRollback // unused item number → whole txn rolls back
			}
			itemID := d.nu.randItemID(r, d.cfg.Items)
			item, err := getDecoded(tx, d.t.item, d.itemRID(itemID), DecodeItem)
			if err != nil {
				return err
			}
			srid := d.stockRID(supply[line-1], itemID)
			stock, err := getDecoded(tx, d.t.stock, srid, DecodeStock)
			if err != nil {
				return err
			}
			qty := int32(randRange(r, 1, 10))
			if stock.Qty >= qty+10 {
				stock.Qty -= qty
			} else {
				stock.Qty = stock.Qty - qty + 91
			}
			stock.YTD += int64(qty)
			stock.OrderCnt++
			if err := tx.Update(d.t.stock, srid, stock.Encode()); err != nil {
				return err
			}
			ol := OrderLine{W: wk.w, D: dist, OID: res.oid, Number: uint32(line),
				ItemID: itemID, SupplyW: supply[line-1], Qty: uint32(qty),
				Amount: int64(qty) * item.Price, DistInfo: stock.Dist[:24]}
			olRID, err := insertAt(tx, d.t.orderLine, ol.Encode(), homeHint)
			if err != nil {
				return err
			}
			res.olRIDs = append(res.olRIDs, olRID)
		}
		return nil
	})
	if errors.Is(err, errRollback) {
		res.rolledBack = true
		return errRollback
	}
	if err != nil {
		return err
	}
	// Commit succeeded: publish the new order to the driver indexes.
	st := d.state(wk.w, dist)
	st.mu.Lock()
	st.orderRID[res.oid] = res.orderRID
	st.orderLines[res.oid] = res.olRIDs
	st.newOrderRID[res.oid] = res.noRID
	st.pending = append(st.pending, res.oid)
	st.lastOrderOf[cid] = res.oid
	st.mu.Unlock()
	return nil
}

// lookupCustomer resolves a home-warehouse customer by id (60%) or by last
// name (40%, TPC-C clause 2.5.1.2 — the middle customer of the name group).
func (wk *Worker) lookupCustomer(dist uint32) uint32 {
	return wk.lookupCustomerAt(wk.w, dist)
}

// lookupCustomerAt is lookupCustomer against an arbitrary warehouse —
// Payment's remote-customer clause selects from another warehouse's district.
func (wk *Worker) lookupCustomerAt(w, dist uint32) uint32 {
	d := wk.d
	if wk.r.Intn(100) < 60 {
		return d.nu.randCustomerID(wk.r, d.cfg.CustomersPerDistrict)
	}
	st := d.state(w, dist)
	name := lastName(d.nu.randLastNameNum(wk.r, d.cfg.CustomersPerDistrict))
	st.mu.Lock()
	group := st.byLastName[name]
	st.mu.Unlock()
	if len(group) == 0 {
		return d.nu.randCustomerID(wk.r, d.cfg.CustomersPerDistrict)
	}
	return group[len(group)/2]
}

// Payment runs one Payment transaction: warehouse and district YTD updates,
// customer balance update, HISTORY insert. With CrossWarehouse enabled, 15%
// of payments are made on behalf of a customer of another warehouse (TPC-C
// clause 2.5.1.2) — on a sharded backend that customer's row usually lives on
// another shard and the commit goes through two-phase commit.
func (wk *Worker) Payment() error {
	d := wk.d
	dist := uint32(randRange(wk.r, 1, d.cfg.Districts))
	cw, cd := wk.w, dist
	remote := false
	if d.cfg.CrossWarehouse && d.cfg.Warehouses > 1 && wk.r.Intn(100) < 15 {
		cw = wk.remoteWarehouse()
		cd = uint32(randRange(wk.r, 1, d.cfg.Districts))
		remote = true
		wk.cross = d.crossesShard(wk.w, cw)
	}
	cid := wk.lookupCustomerAt(cw, cd)
	amount := int64(randRange(wk.r, 100, 500000))
	homeHint := d.shardOfW(wk.w)

	return d.execRetryOn(wk.w, remote, func(tx Txn) error {
		wrow, err := getDecoded(tx, d.t.warehouse, d.warehouseRID(wk.w), DecodeWarehouse)
		if err != nil {
			return err
		}
		wrow.YTD += amount
		if err := tx.Update(d.t.warehouse, d.warehouseRID(wk.w), wrow.Encode()); err != nil {
			return err
		}
		drow, err := getDecoded(tx, d.t.district, d.districtRID(wk.w, dist), DecodeDistrict)
		if err != nil {
			return err
		}
		drow.YTD += amount
		if err := tx.Update(d.t.district, d.districtRID(wk.w, dist), drow.Encode()); err != nil {
			return err
		}
		crid := d.customerRID(cw, cd, cid)
		crow, err := getDecoded(tx, d.t.customer, crid, DecodeCustomer)
		if err != nil {
			return err
		}
		crow.Balance -= amount
		crow.YTDPayment += amount
		crow.PaymentCnt++
		if crow.Credit == "BC" {
			data := fmt.Sprintf("%d,%d,%d,%d,%d|%s", cid, cd, cw, dist, amount, crow.Data)
			if len(data) > 250 {
				data = data[:250]
			}
			crow.Data = data
		}
		if err := tx.Update(d.t.customer, crid, crow.Encode()); err != nil {
			return err
		}
		h := History{CW: cw, CD: cd, CID: cid, W: wk.w, D: dist,
			Date: time.Now().UnixNano(), Amount: amount, Data: "payment"}
		_, err = insertAt(tx, d.t.history, h.Encode(), homeHint)
		return err
	})
}

// OrderStatus runs one Order-Status transaction: read customer, their most
// recent order and its order lines.
func (wk *Worker) OrderStatus() error {
	d := wk.d
	dist := uint32(randRange(wk.r, 1, d.cfg.Districts))
	cid := wk.lookupCustomer(dist)
	st := d.state(wk.w, dist)
	st.mu.Lock()
	oid, has := st.lastOrderOf[cid]
	var orid ts.RID
	var olRIDs []ts.RID
	if has {
		orid = st.orderRID[oid]
		olRIDs = append([]ts.RID(nil), st.orderLines[oid]...)
	}
	st.mu.Unlock()

	return d.execRetryOn(wk.w, false, func(tx Txn) error {
		if _, err := getDecoded(tx, d.t.customer, d.customerRID(wk.w, dist, cid), DecodeCustomer); err != nil {
			return err
		}
		if !has {
			return nil
		}
		if _, err := getDecoded(tx, d.t.orders, orid, DecodeOrder); err != nil {
			return err
		}
		for _, rid := range olRIDs {
			if _, err := getDecoded(tx, d.t.orderLine, rid, DecodeOrderLine); err != nil {
				return err
			}
		}
		return nil
	})
}

// Delivery runs one Delivery transaction: per district, the oldest
// undelivered order is removed from NEW-ORDER (the benchmark's only DELETE
// stream), the order and its lines are stamped, and the customer is
// credited.
func (wk *Worker) Delivery() error {
	d := wk.d
	carrier := uint32(randRange(wk.r, 1, 10))
	now := time.Now().UnixNano()

	type delivered struct {
		dist uint32
		oid  uint32
	}
	var done []delivered
	err := d.execRetryOn(wk.w, false, func(tx Txn) error {
		done = done[:0]
		for dist := uint32(1); dist <= uint32(d.cfg.Districts); dist++ {
			st := d.state(wk.w, dist)
			st.mu.Lock()
			if len(st.pending) == 0 {
				st.mu.Unlock()
				continue
			}
			oid := st.pending[0]
			noRID := st.newOrderRID[oid]
			orid := st.orderRID[oid]
			olRIDs := append([]ts.RID(nil), st.orderLines[oid]...)
			st.mu.Unlock()

			if err := tx.Delete(d.t.newOrder, noRID); err != nil {
				return err
			}
			order, err := getDecoded(tx, d.t.orders, orid, DecodeOrder)
			if err != nil {
				return err
			}
			order.Carrier = carrier
			if err := tx.Update(d.t.orders, orid, order.Encode()); err != nil {
				return err
			}
			var total int64
			for _, rid := range olRIDs {
				ol, err := getDecoded(tx, d.t.orderLine, rid, DecodeOrderLine)
				if err != nil {
					return err
				}
				ol.DeliveryD = now
				total += ol.Amount
				if err := tx.Update(d.t.orderLine, rid, ol.Encode()); err != nil {
					return err
				}
			}
			crid := d.customerRID(wk.w, dist, order.CID)
			crow, err := getDecoded(tx, d.t.customer, crid, DecodeCustomer)
			if err != nil {
				return err
			}
			crow.Balance += total
			crow.DeliveryCnt++
			if err := tx.Update(d.t.customer, crid, crow.Encode()); err != nil {
				return err
			}
			done = append(done, delivered{dist: dist, oid: oid})
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Commit succeeded: pop the delivered orders from the FIFOs.
	for _, dd := range done {
		st := d.state(wk.w, dd.dist)
		st.mu.Lock()
		if len(st.pending) > 0 && st.pending[0] == dd.oid {
			st.pending = st.pending[1:]
			delete(st.newOrderRID, dd.oid)
		}
		st.mu.Unlock()
	}
	return nil
}

// StockLevel runs one Stock-Level transaction: examine the order lines of
// the district's last 20 orders and count distinct items whose stock is
// below the threshold.
func (wk *Worker) StockLevel() error {
	d := wk.d
	dist := uint32(randRange(wk.r, 1, d.cfg.Districts))
	threshold := int32(randRange(wk.r, 10, 20))

	return d.execRetryOn(wk.w, false, func(tx Txn) error {
		drow, err := getDecoded(tx, d.t.district, d.districtRID(wk.w, dist), DecodeDistrict)
		if err != nil {
			return err
		}
		lo := uint32(1)
		if drow.NextOID > 20 {
			lo = drow.NextOID - 20
		}
		st := d.state(wk.w, dist)
		var olRIDs []ts.RID
		st.mu.Lock()
		for oid := lo; oid < drow.NextOID; oid++ {
			olRIDs = append(olRIDs, st.orderLines[oid]...)
		}
		st.mu.Unlock()

		low := make(map[uint32]bool)
		for _, rid := range olRIDs {
			ol, err := getDecoded(tx, d.t.orderLine, rid, DecodeOrderLine)
			if err != nil {
				if errors.Is(err, core.ErrRecordNotFound) {
					continue // line from an order newer than our snapshot
				}
				return err
			}
			stock, err := getDecoded(tx, d.t.stock, d.stockRID(wk.w, ol.ItemID), DecodeStock)
			if err != nil {
				return err
			}
			if stock.Qty < threshold {
				low[ol.ItemID] = true
			}
		}
		return nil
	})
}
