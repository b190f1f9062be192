package tpcc

import (
	"fmt"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// Procedure names.
const (
	ProcNewOrder    = "NewOrder"
	ProcPayment     = "Payment"
	ProcOrderStatus = "OrderStatus"
	ProcDelivery    = "Delivery"
	ProcStockLevel  = "StockLevel"
)

// NewOrder argument layout:
//
//	0: w, 1: d, 2: c, 3: ol_cnt, 4: entry (date stand-in), 5: rbk
//	then per line j (0-based): 6+3j: i_id, 7+3j: supply_w, 8+3j: qty
//
// rbk=1 makes the last line's item id invalid, triggering the 1%
// user rollback the spec mandates.
//
// NewOrder is the paper's canonical dependent transaction: the order
// id comes from DISTRICT.next_o_id, so the ORDERS/NEW_ORDER/
// ORDER_LINE inserts are all key-dependent on the district read.
// When two NewOrders race on one district, the loser heals the
// district read and re-executes the inserts with the fresh order id —
// a read/write-set membership update (§4.2.2) — instead of aborting.
func newOrderSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcNewOrder,
		Home:   newOrderHome,
		Params: []string{"w", "d", "c", "ol_cnt", "entry", "rbk"},
		Plan: func(b *proc.Builder, args *proc.Env) {
			olCnt := int(args.Int("ol_cnt"))

			b.Op(proc.Op{
				Name:     "readWarehouse",
				KeyReads: []string{"w"},
				Writes:   []string{"wtax"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read(TabWarehouse, WarehouseKey(e.Int("w")), []int{WTaxBps})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such warehouse")
					}
					e.SetVal("wtax", row[WTaxBps])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "readDistrict",
				KeyReads: []string{"w", "d"},
				Writes:   []string{"dtax", "oid"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read(TabDistrict, DistrictKey(e.Int("w"), e.Int("d")), []int{DTaxBps, DNextOID})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such district")
					}
					e.SetVal("dtax", row[DTaxBps])
					e.SetVal("oid", row[DNextOID])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "advanceDistrict",
				KeyReads: []string{"w", "d"},
				ValReads: []string{"oid"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write(TabDistrict, DistrictKey(e.Int("w"), e.Int("d")),
						[]int{DNextOID}, []storage.Value{storage.Int(e.Int("oid") + 1)})
				},
			})
			b.Op(proc.Op{
				Name:     "readCustomer",
				KeyReads: []string{"w", "d", "c"},
				Writes:   []string{"cdisc"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read(TabCustomer, CustomerKey(e.Int("w"), e.Int("d"), e.Int("c")),
						[]int{CDiscountBps, CLast, CCredit})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such customer")
					}
					e.SetVal("cdisc", row[CDiscountBps])
					return nil
				},
			})

			allLocal := int64(1)
			for j := 0; j < olCnt; j++ {
				if args.Int(proc.Positional(7+3*j)) != args.Int("w") {
					allLocal = 0
					break
				}
			}
			b.Op(proc.Op{
				Name:     "insertOrder",
				KeyReads: []string{"w", "d", "oid"},
				ValReads: []string{"c", "entry", "ol_cnt"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Insert(TabOrders, OrderKey(e.Int("w"), e.Int("d"), e.Int("oid")), storage.Tuple{
						storage.Int(e.Int("c")),
						storage.Int(e.Int("entry")),
						storage.Int(0), // carrier: null until delivered
						storage.Int(e.Int("ol_cnt")),
						storage.Int(allLocal),
					})
				},
			})
			b.Op(proc.Op{
				Name:     "insertNewOrder",
				KeyReads: []string{"w", "d", "oid"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Insert(TabNewOrder, NewOrderKey(e.Int("w"), e.Int("d"), e.Int("oid")), storage.Tuple{
						storage.Int(e.Int("oid")),
					})
				},
			})

			for j := 0; j < olCnt; j++ {
				j := j
				iidVar := proc.Positional(6 + 3*j)
				supVar := proc.Positional(7 + 3*j)
				qtyVar := proc.Positional(8 + 3*j)
				priceVar := fmt.Sprintf("price%d", j)
				amtVar := fmt.Sprintf("amt%d", j)

				b.Op(proc.Op{
					Name:     fmt.Sprintf("readItem%d", j),
					KeyReads: []string{iidVar},
					Writes:   []string{priceVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						row, ok, err := ctx.Read(TabItem, ItemKey(e.Int(iidVar)), []int{IPriceCents})
						if err != nil {
							return err
						}
						if !ok {
							// Unused item id: the spec's 1% rollback.
							return proc.UserAbort("item not found")
						}
						e.SetVal(priceVar, row[IPriceCents])
						return nil
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("updateStock%d", j),
					KeyReads: []string{"w", supVar, iidVar},
					ValReads: []string{qtyVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						key := StockKey(e.Int(supVar), e.Int(iidVar))
						row, ok, err := ctx.Read(TabStock, key,
							[]int{SQuantity, SYTD, SOrderCnt, SRemoteCnt})
						if err != nil {
							return err
						}
						if !ok {
							return proc.UserAbort("no such stock")
						}
						qty := e.Int(qtyVar)
						sq := row[SQuantity].Int() - qty
						if sq < 10 {
							sq += 91
						}
						remote := int64(0)
						if e.Int(supVar) != e.Int("w") {
							remote = 1
						}
						return ctx.Write(TabStock, key,
							[]int{SQuantity, SYTD, SOrderCnt, SRemoteCnt},
							[]storage.Value{
								storage.Int(sq),
								storage.Int(row[SYTD].Int() + qty),
								storage.Int(row[SOrderCnt].Int() + 1),
								storage.Int(row[SRemoteCnt].Int() + remote),
							})
					},
				})
				b.Op(proc.Op{
					Name:     fmt.Sprintf("insertOrderLine%d", j),
					KeyReads: []string{"w", "d", "oid"},
					ValReads: []string{iidVar, supVar, qtyVar, priceVar, "wtax", "dtax", "cdisc"},
					Writes:   []string{amtVar},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						qty := e.Int(qtyVar)
						// amount = qty * price * (1 + w_tax + d_tax) * (1 - discount)
						amt := qty * e.Int(priceVar) * (10000 + e.Int("wtax") + e.Int("dtax")) / 10000
						amt = amt * (10000 - e.Int("cdisc")) / 10000
						e.SetInt(amtVar, amt)
						return ctx.Insert(TabOrderLine,
							OrderLineKey(e.Int("w"), e.Int("d"), e.Int("oid"), int64(j+1)),
							storage.Tuple{
								storage.Int(e.Int(iidVar)),
								storage.Int(e.Int(supVar)),
								storage.Int(0), // delivery_d: null until delivered
								storage.Int(qty),
								storage.Int(amt),
								storage.Str("dist-info-placeholder-24b"),
							})
					},
				})
			}

			amtVars := make([]string, olCnt)
			for j := range amtVars {
				amtVars[j] = fmt.Sprintf("amt%d", j)
			}
			b.Op(proc.Op{
				Name:     "total",
				ValReads: amtVars,
				Writes:   []string{"total"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					var total int64
					for _, v := range amtVars {
						total += e.Int(v)
					}
					e.SetInt("total", total)
					return nil
				},
			})
		},
	}
}
