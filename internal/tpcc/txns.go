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

// newOrderResult carries the driver-state updates applied after commit.
type newOrderResult struct {
	dist     uint32
	oid      uint32
	cid      uint32
	orderRID ts.RID
	noRID    ts.RID
	olRIDs   []ts.RID
}

// orderLineDraft is one New-Order line between its draw and its insert.
type orderLineDraft struct {
	itemID uint32
	qty    int32
	srid   ts.RID // the STOCK row the line draws from
	stock  Stock  // that row once the line has drawn from it
	// Operation indexes: the ITEM and STOCK reads, the ORDER-LINE insert.
	itemGet, stockGet, insert int
}

// NewOrder runs one New-Order transaction against the worker's home
// warehouse. It reads warehouse, district, customer and every line's ITEM
// and STOCK row together, then writes together: the district's next order
// id, ORDERS, NEW-ORDER, and per line the STOCK update (the update stream
// Figure 13 attributes the stable chain count to) and the ORDER-LINE insert.
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
	supply := wk.supply[:0]
	remote := false
	for i := 0; i < olCnt; i++ {
		supply = append(supply, wk.w)
		if d.cfg.CrossWarehouse && d.cfg.Warehouses > 1 && r.Intn(100) == 0 {
			supply[i] = wk.remoteWarehouse()
			remote = true
			if d.crossesShard(wk.w, supply[i]) {
				wk.cross = true
			}
		}
	}
	wk.supply = supply
	homeHint := d.shardOfW(wk.w)
	drid := d.districtRID(wk.w, dist)

	var res newOrderResult
	err := wk.exec(remote, func(b batch) error {
		// The intentional rollback is an unused item number on the last
		// line: every line before it runs, then the whole txn rolls back.
		lines := wk.lines[:0]
		for line := 1; line <= olCnt && !(rollback && line == olCnt); line++ {
			itemID := d.nu.randItemID(r, d.cfg.Items)
			qty := int32(randRange(r, 1, 10))
			lines = append(lines, orderLineDraft{itemID: itemID, qty: qty,
				srid: d.stockRID(supply[line-1], itemID)})
		}
		wk.lines = lines

		wGet := b.Get(d.t.warehouse, d.warehouseRID(wk.w))
		dGet := b.Get(d.t.district, drid)
		cGet := b.Get(d.t.customer, d.customerRID(wk.w, dist, cid))
		for i := range lines {
			lines[i].itemGet = b.Get(d.t.item, d.itemRID(lines[i].itemID))
		}
		for i := range lines {
			lines[i].stockGet = b.Get(d.t.stock, lines[i].srid)
		}
		if err := b.Do(); err != nil {
			return err
		}
		if _, err := DecodeWarehouse(b.Image(wGet)); err != nil {
			return err
		}
		drow, err := DecodeDistrict(b.Image(dGet))
		if err != nil {
			return err
		}
		if _, err := DecodeCustomer(b.Image(cGet)); err != nil {
			return err
		}

		// Reset per attempt: a retried attempt must not keep the RIDs of the
		// conflicted one.
		res = newOrderResult{dist: dist, cid: cid, oid: drow.NextOID}
		drow.NextOID++
		b.Update(d.t.district, drid, drow.Encode())
		order := Order{W: wk.w, D: dist, ID: res.oid, CID: cid,
			EntryD: time.Now().UnixNano(), OLCnt: uint32(olCnt), AllLocal: !remote}
		oInsert := b.InsertAt(d.t.orders, order.Encode(), homeHint)
		no := NewOrderRow{W: wk.w, D: dist, OID: res.oid}
		noInsert := b.InsertAt(d.t.newOrder, no.Encode(), homeHint)
		for i := range lines {
			ln := &lines[i]
			item, err := DecodeItem(b.Image(ln.itemGet))
			if err != nil {
				return err
			}
			if ln.stock, err = DecodeStock(b.Image(ln.stockGet)); err != nil {
				return err
			}
			// Every read of this frame came before every write, so a line
			// that repeats an item read the row as it was before the earlier
			// line drew from it: continue from that line's row instead.
			for j := range lines[:i] {
				if lines[j].srid == ln.srid {
					ln.stock = lines[j].stock
				}
			}
			stock := &ln.stock
			if stock.Qty >= ln.qty+10 {
				stock.Qty -= ln.qty
			} else {
				stock.Qty = stock.Qty - ln.qty + 91
			}
			stock.YTD += int64(ln.qty)
			stock.OrderCnt++
			b.Update(d.t.stock, ln.srid, stock.Encode())
			ol := OrderLine{W: wk.w, D: dist, OID: res.oid, Number: uint32(i + 1),
				ItemID: ln.itemID, SupplyW: supply[i], Qty: uint32(ln.qty),
				Amount: int64(ln.qty) * item.Price, DistInfo: stock.Dist[:24]}
			ln.insert = b.InsertAt(d.t.orderLine, ol.Encode(), homeHint)
		}
		if rollback {
			if err := b.Do(); err != nil {
				return err
			}
			return errRollback
		}
		b.Commit()
		if err := b.Do(); err != nil {
			return err
		}
		res.orderRID, res.noRID = b.RID(oInsert), b.RID(noInsert)
		res.olRIDs = make([]ts.RID, len(lines))
		for i := range lines {
			res.olRIDs[i] = b.RID(lines[i].insert)
		}
		return nil
	})
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
	wrid, drid, crid := d.warehouseRID(wk.w), d.districtRID(wk.w, dist), d.customerRID(cw, cd, cid)

	return wk.exec(remote, func(b batch) error {
		wGet := b.Get(d.t.warehouse, wrid)
		dGet := b.Get(d.t.district, drid)
		cGet := b.Get(d.t.customer, crid)
		if err := b.Do(); err != nil {
			return err
		}
		wrow, err := DecodeWarehouse(b.Image(wGet))
		if err != nil {
			return err
		}
		wrow.YTD += amount
		b.Update(d.t.warehouse, wrid, wrow.Encode())
		drow, err := DecodeDistrict(b.Image(dGet))
		if err != nil {
			return err
		}
		drow.YTD += amount
		b.Update(d.t.district, drid, drow.Encode())
		crow, err := DecodeCustomer(b.Image(cGet))
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
		b.Update(d.t.customer, crid, crow.Encode())
		h := History{CW: cw, CD: cd, CID: cid, W: wk.w, D: dist,
			Date: time.Now().UnixNano(), Amount: amount, Data: "payment"}
		b.InsertAt(d.t.history, h.Encode(), homeHint)
		b.Commit()
		return b.Do()
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
	olRIDs := wk.rids[:0]
	if has {
		orid = st.orderRID[oid]
		olRIDs = append(olRIDs, st.orderLines[oid]...)
	}
	st.mu.Unlock()
	wk.rids = olRIDs

	return wk.exec(false, func(b batch) error {
		cGet := b.Get(d.t.customer, d.customerRID(wk.w, dist, cid))
		oGet := -1
		if has {
			oGet = b.Get(d.t.orders, orid)
			for _, rid := range olRIDs {
				b.Get(d.t.orderLine, rid)
			}
		}
		b.Commit()
		if err := b.Do(); err != nil {
			return err
		}
		if _, err := DecodeCustomer(b.Image(cGet)); err != nil {
			return err
		}
		if !has {
			return nil
		}
		if _, err := DecodeOrder(b.Image(oGet)); err != nil {
			return err
		}
		for i := range olRIDs {
			if _, err := DecodeOrderLine(b.Image(oGet + 1 + i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// delivery is one district's share of a Delivery transaction.
type delivery struct {
	dist, oid   uint32
	noRID, orid ts.RID
	olLo, olHi  int // its order lines, as a window of the worker's rids
	crid        ts.RID
	total       int64
	// Operation indexes: the ORDERS read (the ORDER-LINE reads follow it),
	// then the CUSTOMER read.
	oGet, cGet int
}

// Delivery runs one Delivery transaction: per district, the oldest
// undelivered order is removed from NEW-ORDER (the benchmark's only DELETE
// stream), the order and its lines are stamped, and the customer is
// credited. The customer is known only once the order is read and credited
// only once it is read itself, hence three steps.
func (wk *Worker) Delivery() error {
	d := wk.d
	carrier := uint32(randRange(wk.r, 1, 10))
	now := time.Now().UnixNano()

	err := wk.exec(false, func(b batch) error {
		dlv, rids := wk.dlv[:0], wk.rids[:0]
		for dist := uint32(1); dist <= uint32(d.cfg.Districts); dist++ {
			st := d.state(wk.w, dist)
			st.mu.Lock()
			if len(st.pending) == 0 {
				st.mu.Unlock()
				continue
			}
			oid := st.pending[0]
			lo := len(rids)
			rids = append(rids, st.orderLines[oid]...)
			dlv = append(dlv, delivery{dist: dist, oid: oid,
				noRID: st.newOrderRID[oid], orid: st.orderRID[oid], olLo: lo, olHi: len(rids)})
			st.mu.Unlock()
		}
		wk.dlv, wk.rids = dlv, rids

		for i := range dlv {
			dl := &dlv[i]
			b.Delete(d.t.newOrder, dl.noRID)
			dl.oGet = b.Get(d.t.orders, dl.orid)
			for _, rid := range rids[dl.olLo:dl.olHi] {
				b.Get(d.t.orderLine, rid)
			}
		}
		if err := b.Do(); err != nil {
			return err
		}
		for i := range dlv {
			dl := &dlv[i]
			order, err := DecodeOrder(b.Image(dl.oGet))
			if err != nil {
				return err
			}
			order.Carrier = carrier
			b.Update(d.t.orders, dl.orid, order.Encode())
			dl.total = 0
			for j, rid := range rids[dl.olLo:dl.olHi] {
				ol, err := DecodeOrderLine(b.Image(dl.oGet + 1 + j))
				if err != nil {
					return err
				}
				ol.DeliveryD = now
				dl.total += ol.Amount
				b.Update(d.t.orderLine, rid, ol.Encode())
			}
			dl.crid = d.customerRID(wk.w, dl.dist, order.CID)
			dl.cGet = b.Get(d.t.customer, dl.crid)
		}
		if err := b.Do(); err != nil {
			return err
		}
		for i := range dlv {
			dl := &dlv[i]
			crow, err := DecodeCustomer(b.Image(dl.cGet))
			if err != nil {
				return err
			}
			crow.Balance += dl.total
			crow.DeliveryCnt++
			b.Update(d.t.customer, dl.crid, crow.Encode())
		}
		b.Commit()
		return b.Do()
	})
	if err != nil {
		return err
	}
	// Commit succeeded: pop the delivered orders from the FIFOs.
	for _, dl := range wk.dlv {
		st := d.state(wk.w, dl.dist)
		st.mu.Lock()
		if len(st.pending) > 0 && st.pending[0] == dl.oid {
			st.pending = st.pending[1:]
			delete(st.newOrderRID, dl.oid)
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

	return wk.exec(false, func(b batch) error {
		dGet := b.Get(d.t.district, d.districtRID(wk.w, dist))
		if err := b.Do(); err != nil {
			return err
		}
		drow, err := DecodeDistrict(b.Image(dGet))
		if err != nil {
			return err
		}
		lo := uint32(1)
		if drow.NextOID > 20 {
			lo = drow.NextOID - 20
		}
		st := d.state(wk.w, dist)
		olRIDs := wk.rids[:0]
		st.mu.Lock()
		for oid := lo; oid < drow.NextOID; oid++ {
			olRIDs = append(olRIDs, st.orderLines[oid]...)
		}
		st.mu.Unlock()
		wk.rids = olRIDs

		// A line from an order newer than our snapshot is not there to read.
		// It stops the batch it is in: keep what ran, skip it, and go on
		// after it.
		items := wk.items[:0]
		for next := 0; next < len(olRIDs); {
			for _, rid := range olRIDs[next:] {
				b.Get(d.t.orderLine, rid)
			}
			err := b.Do()
			if err != nil && !errors.Is(err, core.ErrRecordNotFound) {
				return err
			}
			for i := 0; i < b.Ran(); i++ {
				ol, err := DecodeOrderLine(b.Image(i))
				if err != nil {
					return err
				}
				items = append(items, ol.ItemID)
			}
			next += b.Ran()
			if err != nil {
				next++
			}
		}
		wk.items = items

		for _, itemID := range items {
			b.Get(d.t.stock, d.stockRID(wk.w, itemID))
		}
		b.Commit()
		if err := b.Do(); err != nil {
			return err
		}
		low := make(map[uint32]bool)
		for i, itemID := range items {
			stock, err := DecodeStock(b.Image(i))
			if err != nil {
				return err
			}
			if stock.Qty < threshold {
				low[itemID] = true
			}
		}
		return nil
	})
}
