package tpcc

import (
	"fmt"

	"hybridgc/internal/ts"
)

// Check validates the TPC-C consistency conditions that survive this
// driver's modifications (home-warehouse-only workers), against a single
// transaction-level snapshot. Run it while workers are paused.
//
//   - C1: W_YTD = Σ D_YTD over the warehouse's districts.
//   - C2: D_NEXT_O_ID - 1 = max order id per district.
//   - C3: every undelivered order id appears in NEW-ORDER, delivered ones
//     do not, and O_CARRIER_ID reflects delivery.
//   - C4: O_OL_CNT equals the number of ORDER-LINE rows of the order.
//   - C5: C_BALANCE + C_YTD_PAYMENT = Σ OL_AMOUNT of the customer's
//     delivered orders (with the loader's initial values folded in).
func (d *Driver) Check() error {
	tx, err := d.checkBackend().Begin(true)
	if err != nil {
		return err
	}
	defer tx.Abort()

	for w := 1; w <= d.cfg.Warehouses; w++ {
		if err := d.checkWarehouse(tx, uint32(w)); err != nil {
			return err
		}
	}
	return nil
}

// getDecoded loads and decodes one row.
func getDecoded[T any](tx Txn, tid ts.TableID, rid ts.RID, decode func([]byte) (T, error)) (T, error) {
	var zero T
	img, err := tx.Get(tid, rid)
	if err != nil {
		return zero, err
	}
	return decode(img)
}

func (d *Driver) checkWarehouse(tx Txn, w uint32) error {
	wrow, err := getDecoded(tx, d.t.warehouse, d.warehouseRID(w), DecodeWarehouse)
	if err != nil {
		return fmt.Errorf("warehouse %d: %w", w, err)
	}
	var sumDistrictYTD int64
	// Customer delivered-amount accumulator for C5.
	delivered := make(map[uint32]int64) // customerRID-local key: d*1e6+c

	for dist := uint32(1); dist <= uint32(d.cfg.Districts); dist++ {
		drow, err := getDecoded(tx, d.t.district, d.districtRID(w, dist), DecodeDistrict)
		if err != nil {
			return fmt.Errorf("district %d/%d: %w", w, dist, err)
		}
		sumDistrictYTD += drow.YTD

		st := d.state(w, dist)
		st.mu.Lock()
		maxOID := uint32(0)
		orderRIDs := make(map[uint32]ts.RID, len(st.orderRID))
		for oid, rid := range st.orderRID {
			orderRIDs[oid] = rid
			if oid > maxOID {
				maxOID = oid
			}
		}
		olRIDs := make(map[uint32][]ts.RID, len(st.orderLines))
		for oid, rids := range st.orderLines {
			olRIDs[oid] = append([]ts.RID(nil), rids...)
		}
		pending := make(map[uint32]ts.RID, len(st.pending))
		for _, oid := range st.pending {
			pending[oid] = st.newOrderRID[oid]
		}
		st.mu.Unlock()

		// C2: NextOID-1 == max committed order id.
		if drow.NextOID != maxOID+1 {
			return fmt.Errorf("district %d/%d: NEXT_O_ID %d but max order id %d",
				w, dist, drow.NextOID, maxOID)
		}
		for oid, orid := range orderRIDs {
			order, err := getDecoded(tx, d.t.orders, orid, DecodeOrder)
			if err != nil {
				return fmt.Errorf("order %d/%d/%d: %w", w, dist, oid, err)
			}
			// C4: line count.
			lines := olRIDs[oid]
			if int(order.OLCnt) != len(lines) {
				return fmt.Errorf("order %d/%d/%d: OL_CNT %d but %d lines",
					w, dist, oid, order.OLCnt, len(lines))
			}
			noRID, isPending := pending[oid]
			// C3: NEW-ORDER row presence matches carrier assignment.
			if isPending {
				if order.Carrier != 0 {
					return fmt.Errorf("order %d/%d/%d: pending but carrier %d",
						w, dist, oid, order.Carrier)
				}
				if _, err := getDecoded(tx, d.t.newOrder, noRID, DecodeNewOrder); err != nil {
					return fmt.Errorf("order %d/%d/%d: NEW-ORDER row missing: %w",
						w, dist, oid, err)
				}
			} else if order.Carrier == 0 {
				return fmt.Errorf("order %d/%d/%d: delivered without carrier", w, dist, oid)
			}
			// C5 accumulation and delivery stamps.
			var total int64
			for _, rid := range lines {
				ol, err := getDecoded(tx, d.t.orderLine, rid, DecodeOrderLine)
				if err != nil {
					return fmt.Errorf("orderline %d/%d/%d: %w", w, dist, oid, err)
				}
				if isPending && ol.DeliveryD != 0 {
					return fmt.Errorf("orderline %d/%d/%d: delivery date on pending order", w, dist, oid)
				}
				if !isPending && ol.DeliveryD == 0 {
					return fmt.Errorf("orderline %d/%d/%d: delivered without date", w, dist, oid)
				}
				total += ol.Amount
			}
			if !isPending {
				delivered[dist*1_000_000+order.CID] += total
			}
		}

		// C5: customer balances.
		for c := uint32(1); c <= uint32(d.cfg.CustomersPerDistrict); c++ {
			crow, err := getDecoded(tx, d.t.customer, d.customerRID(w, dist, c), DecodeCustomer)
			if err != nil {
				return fmt.Errorf("customer %d/%d/%d: %w", w, dist, c, err)
			}
			if got, want := crow.Balance+crow.YTDPayment, delivered[dist*1_000_000+c]; got != want {
				return fmt.Errorf("customer %d/%d/%d: balance+ytd = %d, delivered sum = %d",
					w, dist, c, got, want)
			}
		}
	}
	// C1.
	if wrow.YTD != sumDistrictYTD {
		return fmt.Errorf("warehouse %d: W_YTD %d != Σ D_YTD %d", w, wrow.YTD, sumDistrictYTD)
	}
	return nil
}
