// Package tpcc implements the TPC-C benchmark [4] as used in the
// paper's evaluation: nine tables, the five standard stored
// procedures, population, a transaction-mix generator, and the
// consistency checks used by the test suite.
//
// Contention is controlled by the warehouse count (fewer warehouses =
// hotter DISTRICT/WAREHOUSE rows); the share of cross-partition
// transactions is controlled by the remote-warehouse probability of
// NewOrder (Fig. 12). Monetary amounts are stored as integer cents
// and rates as basis points so the consistency checks are exact.
//
// The schema ranks encode the paper's Figure 7 tree order: Warehouse
// and District validate before every other table, which is what makes
// validation-order rearrangement (§4.5) effective for NewOrder's
// order-id dependency.
package tpcc

import (
	"fmt"

	"thedb/internal/storage"
)

// Table names.
const (
	TabWarehouse = "WAREHOUSE"
	TabDistrict  = "DISTRICT"
	TabCustomer  = "CUSTOMER"
	TabHistory   = "HISTORY"
	TabNewOrder  = "NEW_ORDER"
	TabOrders    = "ORDERS"
	TabOrderLine = "ORDER_LINE"
	TabItem      = "ITEM"
	TabStock     = "STOCK"
)

// WAREHOUSE columns.
const (
	WName = iota
	WStreet
	WCity
	WState
	WZip
	WTaxBps
	WYTDCents
)

// DISTRICT columns.
const (
	DName = iota
	DStreet
	DCity
	DState
	DZip
	DTaxBps
	DYTDCents
	DNextOID
)

// CUSTOMER columns.
const (
	CFirst = iota
	CMiddle
	CLast
	CStreet
	CCity
	CState
	CZip
	CPhone
	CSince
	CCredit
	CCreditLimCents
	CDiscountBps
	CBalanceCents
	CYTDPaymentCents
	CPaymentCnt
	CDeliveryCnt
	CData
)

// HISTORY columns.
const (
	HCID = iota
	HCDID
	HCWID
	HDID
	HWID
	HDate
	HAmountCents
	HData
)

// NEW_ORDER columns.
const (
	NOOID = iota
)

// ORDERS columns.
const (
	OCID = iota
	OEntryD
	OCarrierID
	OOLCnt
	OAllLocal
)

// ORDER_LINE columns.
const (
	OLIID = iota
	OLSupplyWID
	OLDeliveryD
	OLQuantity
	OLAmountCents
	OLDistInfo
)

// ITEM columns.
const (
	IImID = iota
	IName
	IPriceCents
	IData
)

// STOCK columns.
const (
	SQuantity = iota
	SYTD
	SOrderCnt
	SRemoteCnt
	SDistAll
	SData
)

// IdxCustomerName is the secondary index on CUSTOMER(last, first).
const IdxCustomerName = "customer_name"

// IdxOrderCustomer is the secondary index on ORDERS(c_w, c_d, c_id,
// o_id) used to find a customer's most recent order.
const IdxOrderCustomer = "order_customer"

// Schemas returns the nine table schemas. Its argument is ignored:
// THEDB-DT partitions by the warehouses each procedure names
// (proc.Spec.Home), not by table. It stays until the benchmark module,
// which calls Schemas(0), can drop it.
func Schemas(_ int) []storage.Schema {
	str := storage.KindString
	num := storage.KindInt
	cols := func(defs ...storage.ColumnDef) []storage.ColumnDef { return defs }
	c := func(name string, k storage.ValueKind) storage.ColumnDef {
		return storage.ColumnDef{Name: name, Kind: k}
	}
	return []storage.Schema{
		{
			Name: TabWarehouse, Rank: 0,
			Columns: cols(c("name", str), c("street", str), c("city", str), c("state", str),
				c("zip", str), c("tax_bps", num), c("ytd_cents", num)),
		},
		{
			Name: TabDistrict, Rank: 1,
			Columns: cols(c("name", str), c("street", str), c("city", str), c("state", str),
				c("zip", str), c("tax_bps", num), c("ytd_cents", num), c("next_o_id", num)),
		},
		{
			Name: TabCustomer, Rank: 2,
			Columns: cols(c("first", str), c("middle", str), c("last", str), c("street", str),
				c("city", str), c("state", str), c("zip", str), c("phone", str), c("since", num),
				c("credit", str), c("credit_lim_cents", num), c("discount_bps", num),
				c("balance_cents", num), c("ytd_payment_cents", num), c("payment_cnt", num),
				c("delivery_cnt", num), c("data", str)),
			Secondaries: []storage.SecondaryDef{{
				Name: IdxCustomerName,
				Key: func(pk storage.Key, t storage.Tuple) string {
					w, d, _ := SplitCustomerKey(pk)
					return fmt.Sprintf("%05d|%03d|%s|%s|%016x", w, d, t[CLast].Str(), t[CFirst].Str(), uint64(pk))
				},
			}},
		},
		{
			Name: TabHistory, Rank: 5,
			Columns: cols(c("c_id", num), c("c_d_id", num), c("c_w_id", num), c("d_id", num),
				c("w_id", num), c("date", num), c("amount_cents", num), c("data", str)),
		},
		{
			Name: TabNewOrder, Rank: 3, Ordered: true, ShardShift: 40,
			Columns: cols(c("o_id", num)),
		},
		{
			Name: TabOrders, Rank: 4, Ordered: true, ShardShift: 40,
			Columns: cols(c("c_id", num), c("entry_d", num), c("carrier_id", num),
				c("ol_cnt", num), c("all_local", num)),
			Secondaries: []storage.SecondaryDef{{
				Name: IdxOrderCustomer,
				Key: func(pk storage.Key, t storage.Tuple) string {
					w, d, o := SplitOrderKey(pk)
					return fmt.Sprintf("%05d|%03d|%06d|%010d", w, d, t[OCID].Int(), o)
				},
			}},
		},
		{
			Name: TabOrderLine, Rank: 6, Ordered: true, ShardShift: 40,
			Columns: cols(c("i_id", num), c("supply_w_id", num), c("delivery_d", num),
				c("quantity", num), c("amount_cents", num), c("dist_info", str)),
		},
		{
			Name: TabItem, Rank: 7,
			Columns: cols(c("im_id", num), c("name", str), c("price_cents", num), c("data", str)),
		},
		{
			Name: TabStock, Rank: 8,
			Columns: cols(c("quantity", num), c("ytd", num), c("order_cnt", num),
				c("remote_cnt", num), c("dist_all", str), c("data", str)),
		},
	}
}
