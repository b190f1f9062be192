package tpcc

import (
	"fmt"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// OrderStatus argument layout:
//
//	0: w, 1: d, 2: c (0 when by name), 3: last ("" when by id)
func orderStatusSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcOrderStatus,
		Params: []string{"w", "d", "c", "last"},
		Plan: func(b *proc.Builder, args *proc.Env) {
			if args.Str("last") != "" {
				b.Op(proc.Op{
					Name:     "resolveByName",
					KeyReads: []string{"w", "d", "last"},
					Writes:   []string{"cid"},
					Body:     resolveCustomerByName("w", "d"),
				})
			} else {
				b.Op(proc.Op{
					Name:     "resolveById",
					ValReads: []string{"c"},
					Writes:   []string{"cid"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						e.SetInt("cid", e.Int("c"))
						return nil
					},
				})
			}
			b.Op(proc.Op{
				Name:     "readCustomer",
				KeyReads: []string{"w", "d", "cid"},
				Writes:   []string{"cbal"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read(TabCustomer, CustomerKey(e.Int("w"), e.Int("d"), e.Int("cid")),
						[]int{CFirst, CMiddle, CLast, CBalanceCents})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such customer")
					}
					e.SetVal("cbal", row[CBalanceCents])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "lastOrder",
				KeyReads: []string{"w", "d", "cid"},
				Writes:   []string{"oid", "found"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					prefix := fmt.Sprintf("%05d|%03d|%06d|", e.Int("w"), e.Int("d"), e.Int("cid"))
					var last storage.Key
					found := int64(0)
					err := ctx.ScanSec(TabOrders, IdxOrderCustomer, prefix, prefix+"\xff", 0,
						func(pk storage.Key, _ storage.Tuple) bool {
							last, found = pk, 1
							return true
						})
					if err != nil {
						return err
					}
					oid := int64(0)
					if found == 1 {
						_, _, oid = SplitOrderKey(last)
					}
					e.SetInt("oid", oid)
					e.SetInt("found", found)
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "readOrder",
				KeyReads: []string{"w", "d", "oid", "found"},
				Writes:   []string{"carrier"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					if e.Int("found") == 0 {
						e.SetInt("carrier", 0)
						return nil
					}
					row, ok, err := ctx.Read(TabOrders, OrderKey(e.Int("w"), e.Int("d"), e.Int("oid")),
						[]int{OCarrierID, OEntryD})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("order vanished")
					}
					e.SetVal("carrier", row[OCarrierID])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "readLines",
				KeyReads: []string{"w", "d", "oid", "found"},
				Writes:   []string{"lines"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					if e.Int("found") == 0 {
						e.SetInt("lines", 0)
						return nil
					}
					lines := int64(0)
					err := ctx.Scan(TabOrderLine,
						OrderLineKey(e.Int("w"), e.Int("d"), e.Int("oid"), 0),
						OrderLineKey(e.Int("w"), e.Int("d"), e.Int("oid"), 255), 0,
						func(_ storage.Key, _ storage.Tuple) bool {
							lines++
							return true
						})
					if err != nil {
						return err
					}
					e.SetInt("lines", lines)
					return nil
				},
			})
		},
	}
}

// Delivery argument layout:
//
//	0: w, 1: carrier, 2: delivery_d, 3: districts
//
// Delivery processes every district of the warehouse in one
// transaction: pop the oldest undelivered order, mark it delivered,
// stamp its lines, and credit the customer. It is the paper's most
// dependency-heavy procedure (Fig. 15b): each district forms a chain
// oldest→order→lines→customer of key dependencies.
func deliverySpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcDelivery,
		Params: []string{"w", "carrier", "delivery_d", "districts"},
		Plan: func(b *proc.Builder, args *proc.Env) {
			districts := int(args.Int("districts"))
			for d := 1; d <= districts; d++ {
				d := int64(d)
				oidVar := fmt.Sprintf("oid%d", d)
				foundVar := fmt.Sprintf("found%d", d)
				cidVar := fmt.Sprintf("cid%d", d)
				cntVar := fmt.Sprintf("olcnt%d", d)
				sumVar := fmt.Sprintf("sum%d", d)

				b.Op(proc.Op{
					Name:     fmt.Sprintf("oldestNO%d", d),
					KeyReads: []string{"w"},
					Writes:   []string{oidVar, foundVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						k, _, ok, err := proc.ScanMin(ctx, TabNewOrder,
							NewOrderKey(e.Int("w"), d, 0),
							NewOrderKey(e.Int("w"), d, (1<<24)-1))
						if err != nil {
							return err
						}
						oid := int64(0)
						found := int64(0)
						if ok {
							_, _, oid = SplitOrderKey(k)
							found = 1
						}
						e.SetInt(oidVar, oid)
						e.SetInt(foundVar, found)
						return nil
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("deleteNO%d", d),
					KeyReads: []string{"w", oidVar, foundVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						if e.Int(foundVar) == 0 {
							return nil
						}
						return ctx.Delete(TabNewOrder, NewOrderKey(e.Int("w"), d, e.Int(oidVar)))
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("readOrder%d", d),
					KeyReads: []string{"w", oidVar, foundVar},
					Writes:   []string{cidVar, cntVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						if e.Int(foundVar) == 0 {
							e.SetInt(cidVar, 0)
							e.SetInt(cntVar, 0)
							return nil
						}
						row, ok, err := ctx.Read(TabOrders, OrderKey(e.Int("w"), d, e.Int(oidVar)),
							[]int{OCID, OOLCnt})
						if err != nil {
							return err
						}
						if !ok {
							return proc.UserAbort("order vanished during delivery")
						}
						e.SetVal(cidVar, row[OCID])
						e.SetVal(cntVar, row[OOLCnt])
						return nil
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("stampOrder%d", d),
					KeyReads: []string{"w", oidVar, foundVar},
					ValReads: []string{"carrier"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						if e.Int(foundVar) == 0 {
							return nil
						}
						return ctx.Write(TabOrders, OrderKey(e.Int("w"), d, e.Int(oidVar)),
							[]int{OCarrierID}, []storage.Value{storage.Int(e.Int("carrier"))})
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("stampLines%d", d),
					KeyReads: []string{"w", oidVar, foundVar, cntVar},
					ValReads: []string{"delivery_d"},
					Writes:   []string{sumVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						var sum int64
						if e.Int(foundVar) == 1 {
							for ol := int64(1); ol <= e.Int(cntVar); ol++ {
								key := OrderLineKey(e.Int("w"), d, e.Int(oidVar), ol)
								row, ok, err := ctx.Read(TabOrderLine, key, []int{OLAmountCents})
								if err != nil {
									return err
								}
								if !ok {
									return proc.UserAbort("order line vanished during delivery")
								}
								sum += row[OLAmountCents].Int()
								if err := ctx.Write(TabOrderLine, key,
									[]int{OLDeliveryD}, []storage.Value{storage.Int(e.Int("delivery_d"))}); err != nil {
									return err
								}
							}
						}
						e.SetInt(sumVar, sum)
						return nil
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("creditCustomer%d", d),
					KeyReads: []string{"w", cidVar, foundVar},
					ValReads: []string{sumVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						if e.Int(foundVar) == 0 {
							return nil
						}
						key := CustomerKey(e.Int("w"), d, e.Int(cidVar))
						row, ok, err := ctx.Read(TabCustomer, key, []int{CBalanceCents, CDeliveryCnt})
						if err != nil {
							return err
						}
						if !ok {
							return proc.UserAbort("no such customer")
						}
						return ctx.Write(TabCustomer, key,
							[]int{CBalanceCents, CDeliveryCnt},
							[]storage.Value{
								storage.Int(row[CBalanceCents].Int() + e.Int(sumVar)),
								storage.Int(row[CDeliveryCnt].Int() + 1),
							})
					},
				})
			}
		},
	}
}

// StockLevel argument layout:
//
//	0: w, 1: d, 2: threshold, 3: orders (how many recent orders to
//	examine; the spec uses 20)
func stockLevelSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcStockLevel,
		Params: []string{"w", "d", "threshold", "orders"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "readDistrict",
				KeyReads: []string{"w", "d"},
				Writes:   []string{"oid"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read(TabDistrict, DistrictKey(e.Int("w"), e.Int("d")), []int{DNextOID})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such district")
					}
					e.SetVal("oid", row[DNextOID])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "recentLines",
				KeyReads: []string{"w", "d", "oid", "orders"},
				Writes:   []string{"items"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					lo := e.Int("oid") - e.Int("orders")
					if lo < 0 {
						lo = 0
					}
					var items []storage.Value
					err := ctx.Scan(TabOrderLine,
						OrderLineKey(e.Int("w"), e.Int("d"), lo, 0),
						OrderLineKey(e.Int("w"), e.Int("d"), e.Int("oid")-1, 255), 0,
						func(_ storage.Key, row storage.Tuple) bool {
							items = append(items, row[OLIID])
							return true
						})
					if err != nil {
						return err
					}
					e.SetVals("items", items)
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "countLow",
				KeyReads: []string{"w", "items"},
				ValReads: []string{"threshold"},
				Writes:   []string{"low"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					seen := map[int64]bool{}
					low := int64(0)
					for _, it := range e.Vals("items") {
						iid := it.Int()
						if seen[iid] {
							continue
						}
						seen[iid] = true
						row, ok, err := ctx.Read(TabStock, StockKey(e.Int("w"), iid), []int{SQuantity})
						if err != nil {
							return err
						}
						if ok && row[SQuantity].Int() < e.Int("threshold") {
							low++
						}
					}
					e.SetInt("low", low)
					return nil
				},
			})
		},
	}
}

// Specs returns all five TPC-C stored procedures.
func Specs() []*proc.Spec {
	return []*proc.Spec{
		newOrderSpec(),
		paymentSpec(),
		orderStatusSpec(),
		deliverySpec(),
		stockLevelSpec(),
	}
}
