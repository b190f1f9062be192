package tpcc

import (
	"fmt"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// Payment argument layout:
//
//	0: w, 1: d, 2: c_w, 3: c_d, 4: c (0 when selecting by name),
//	5: last (name, "" when selecting by id), 6: amount, 7: h_id,
//	8: h_date
//
// Selecting by last name makes Payment a dependent transaction: the
// secondary-index scan produces the customer id that keys the
// customer update.
func paymentSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcPayment,
		Home:   paymentHome,
		Params: []string{"w", "d", "c_w", "c_d", "c", "last", "amount", "h_id", "h_date"},
		Plan: func(b *proc.Builder, args *proc.Env) {
			byName := args.Str("last") != ""

			b.Op(proc.Op{
				Name:     "payWarehouse",
				KeyReads: []string{"w"},
				ValReads: []string{"amount"},
				Writes:   []string{"wname"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					key := WarehouseKey(e.Int("w"))
					row, ok, err := ctx.Read(TabWarehouse, key, []int{WName, WYTDCents})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such warehouse")
					}
					e.SetVal("wname", row[WName])
					return ctx.Write(TabWarehouse, key, []int{WYTDCents},
						[]storage.Value{storage.Int(row[WYTDCents].Int() + e.Int("amount"))})
				},
			})
			b.Op(proc.Op{
				Name:     "payDistrict",
				KeyReads: []string{"w", "d"},
				ValReads: []string{"amount"},
				Writes:   []string{"dname"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					key := DistrictKey(e.Int("w"), e.Int("d"))
					row, ok, err := ctx.Read(TabDistrict, key, []int{DName, DYTDCents})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such district")
					}
					e.SetVal("dname", row[DName])
					return ctx.Write(TabDistrict, key, []int{DYTDCents},
						[]storage.Value{storage.Int(row[DYTDCents].Int() + e.Int("amount"))})
				},
			})

			if byName {
				b.Op(proc.Op{
					Name:     "resolveByName",
					KeyReads: []string{"c_w", "c_d", "last"},
					Writes:   []string{"cid"},
					Body:     resolveCustomerByName("c_w", "c_d"),
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
				Name:     "payCustomer",
				KeyReads: []string{"c_w", "c_d", "cid"},
				ValReads: []string{"amount", "w", "d"},
				Writes:   []string{"cbal"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					key := CustomerKey(e.Int("c_w"), e.Int("c_d"), e.Int("cid"))
					row, ok, err := ctx.Read(TabCustomer, key,
						[]int{CBalanceCents, CYTDPaymentCents, CPaymentCnt, CCredit, CData})
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such customer")
					}
					amount := e.Int("amount")
					bal := row[CBalanceCents].Int() - amount
					e.SetInt("cbal", bal)
					cols := []int{CBalanceCents, CYTDPaymentCents, CPaymentCnt}
					vals := []storage.Value{
						storage.Int(bal),
						storage.Int(row[CYTDPaymentCents].Int() + amount),
						storage.Int(row[CPaymentCnt].Int() + 1),
					}
					if row[CCredit].Str() == "BC" {
						// Bad credit: prepend payment info to c_data,
						// truncated to 500 bytes.
						data := fmt.Sprintf("%d|%d|%d|%d|%d;%s",
							e.Int("cid"), e.Int("c_d"), e.Int("c_w"), e.Int("d"), amount, row[CData].Str())
						if len(data) > 500 {
							data = data[:500]
						}
						cols = append(cols, CData)
						vals = append(vals, storage.Str(data))
					}
					return ctx.Write(TabCustomer, key, cols, vals)
				},
			})
			b.Op(proc.Op{
				Name:     "insertHistory",
				KeyReads: []string{"w", "d", "h_id"},
				ValReads: []string{"cid", "c_w", "c_d", "amount", "h_date", "wname", "dname"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Insert(TabHistory, HistoryKey(e.Int("w"), e.Int("d"), e.Int("h_id")),
						storage.Tuple{
							storage.Int(e.Int("cid")),
							storage.Int(e.Int("c_d")),
							storage.Int(e.Int("c_w")),
							storage.Int(e.Int("d")),
							storage.Int(e.Int("w")),
							storage.Int(e.Int("h_date")),
							storage.Int(e.Int("amount")),
							storage.Str(e.Str("wname") + "    " + e.Str("dname")),
						})
				},
			})
		},
	}
}

// resolveCustomerByName builds a body that finds the customer with
// the given last name in (wVar, dVar), picking the spec's "middle"
// match (position n/2) in first-name order.
func resolveCustomerByName(wVar, dVar string) func(proc.OpCtx) error {
	return func(ctx proc.OpCtx) error {
		e := ctx.Env()
		prefix := fmt.Sprintf("%05d|%03d|%s|", e.Int(wVar), e.Int(dVar), e.Str("last"))
		var pks []storage.Key
		err := ctx.ScanSec(TabCustomer, IdxCustomerName, prefix, prefix+"\xff", 0,
			func(pk storage.Key, _ storage.Tuple) bool {
				pks = append(pks, pk)
				return true
			})
		if err != nil {
			return err
		}
		if len(pks) == 0 {
			return proc.UserAbort("no customer with last name " + e.Str("last"))
		}
		_, _, cid := SplitCustomerKey(pks[len(pks)/2])
		e.SetInt("cid", cid)
		return nil
	}
}
