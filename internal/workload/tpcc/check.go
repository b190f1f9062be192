package tpcc

import (
	"fmt"

	"thedb/internal/btree"
	"thedb/internal/storage"
)

// CheckConsistency verifies the TPC-C consistency conditions that
// hold after any number of committed transactions (TPC-C §3.3.2):
//
//  1. W_YTD = Σ D_YTD over the warehouse's districts;
//  2. D_NEXT_O_ID - 1 = max(O_ID) in ORDERS and NEW_ORDER per
//     district;
//  3. NEW_ORDER ids per district form a contiguous range;
//  4. Σ O_OL_CNT = number of ORDER_LINE rows per district.
//
// A serializability violation under contention (lost update on
// next_o_id, double delivery, torn order insert) breaks one of these.
func CheckConsistency(cat *storage.Catalog, cfg Config) error {
	cfg.defaults()
	warehouse, _ := cat.Table(TabWarehouse)
	district, _ := cat.Table(TabDistrict)
	orders, _ := cat.Table(TabOrders)
	newOrder, _ := cat.Table(TabNewOrder)
	orderLine, _ := cat.Table(TabOrderLine)

	for w := int64(1); w <= int64(cfg.Warehouses); w++ {
		wrec, ok := warehouse.Peek(WarehouseKey(w))
		if !ok {
			return fmt.Errorf("tpcc: missing warehouse %d", w)
		}
		var dYTDSum int64
		for d := int64(1); d <= int64(cfg.DistrictsPerW); d++ {
			drec, ok := district.Peek(DistrictKey(w, d))
			if !ok {
				return fmt.Errorf("tpcc: missing district (%d,%d)", w, d)
			}
			dtuple := drec.Tuple()
			dYTDSum += dtuple[DYTDCents].Int()
			nextOID := dtuple[DNextOID].Int()

			// Condition 2 & 4: scan this district's orders.
			var maxOID, olCntSum, orderCount int64
			orders.RangeWalk(OrderKey(w, d, 0), OrderKey(w, d, (1<<24)-1),
				func(_ *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool {
					for _, r := range recs {
						if !r.Visible() {
							continue
						}
						_, _, o := SplitOrderKey(r.Key())
						if o > maxOID {
							maxOID = o
						}
						olCntSum += r.Tuple()[OOLCnt].Int()
						orderCount++
					}
					return true
				})
			if orderCount > 0 && maxOID != nextOID-1 {
				return fmt.Errorf("tpcc: (%d,%d) max order id %d != next_o_id-1 %d", w, d, maxOID, nextOID-1)
			}

			// Condition 3: NEW_ORDER ids contiguous, max matches.
			var noCount, noMin, noMax int64
			noMin = 1 << 62
			newOrder.RangeWalk(NewOrderKey(w, d, 0), NewOrderKey(w, d, (1<<24)-1),
				func(_ *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool {
					for _, r := range recs {
						if !r.Visible() {
							continue
						}
						_, _, o := SplitOrderKey(r.Key())
						noMin, noMax = min(noMin, o), max(noMax, o)
						noCount++
					}
					return true
				})
			if noCount > 0 {
				if noMax-noMin+1 != noCount {
					return fmt.Errorf("tpcc: (%d,%d) NEW_ORDER ids not contiguous: [%d,%d] has %d rows",
						w, d, noMin, noMax, noCount)
				}
				if noMax != maxOID {
					return fmt.Errorf("tpcc: (%d,%d) max NEW_ORDER id %d != max order id %d", w, d, noMax, maxOID)
				}
			}

			var olCount int64
			orderLine.RangeWalk(OrderLineKey(w, d, 0, 0), OrderLineKey(w, d, (1<<24)-1, 255),
				func(_ *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool {
					for _, r := range recs {
						if r.Visible() {
							olCount++
						}
					}
					return true
				})
			if olCntSum != olCount {
				return fmt.Errorf("tpcc: (%d,%d) sum(ol_cnt)=%d != order-line rows %d", w, d, olCntSum, olCount)
			}
		}
		if got := wrec.Tuple()[WYTDCents].Int(); got != dYTDSum {
			return fmt.Errorf("tpcc: warehouse %d ytd %d != sum of district ytd %d", w, got, dYTDSum)
		}
	}
	return nil
}
