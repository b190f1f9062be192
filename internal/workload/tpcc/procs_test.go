package tpcc

import (
	"strings"
	"testing"

	"thedb/internal/btree"
	"thedb/internal/core"
	"thedb/internal/storage"
)

func singleEngine(t *testing.T, cfg Config) *core.Engine {
	t.Helper()
	cat := buildCatalog(t, cfg)
	e := core.NewEngine(cat, core.Options{Protocol: core.Healing, Workers: 1})
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	return e
}

func TestNewOrderEffects(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)

	district, _ := e.Catalog().Table(TabDistrict)
	drec, _ := district.Peek(DistrictKey(1, 1))
	nextBefore := drec.Tuple()[DNextOID].Int()

	stock, _ := e.Catalog().Table(TabStock)
	srec, _ := stock.Peek(StockKey(1, 10))
	qtyBefore := srec.Tuple()[SQuantity].Int()

	args := []storage.Value{
		storage.Int(1), storage.Int(1), storage.Int(3), // w, d, c
		storage.Int(2), storage.Int(777), storage.Int(0), // ol_cnt, entry, rbk
		storage.Int(10), storage.Int(1), storage.Int(4), // item 10, local, qty 4
		storage.Int(20), storage.Int(1), storage.Int(2), // item 20, local, qty 2
	}
	env, err := w.Run(ProcNewOrder, args...)
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("total") <= 0 {
		t.Error("order total not computed")
	}

	drec, _ = district.Peek(DistrictKey(1, 1))
	if got := drec.Tuple()[DNextOID].Int(); got != nextBefore+1 {
		t.Errorf("next_o_id = %d, want %d", got, nextBefore+1)
	}

	oid := nextBefore
	orders, _ := e.Catalog().Table(TabOrders)
	orec, ok := orders.Peek(OrderKey(1, 1, oid))
	if !ok || !orec.Visible() {
		t.Fatal("order row missing")
	}
	if orec.Tuple()[OCID].Int() != 3 || orec.Tuple()[OOLCnt].Int() != 2 {
		t.Errorf("order tuple = %v", orec.Tuple())
	}
	newOrder, _ := e.Catalog().Table(TabNewOrder)
	if norec, ok := newOrder.Peek(NewOrderKey(1, 1, oid)); !ok || !norec.Visible() {
		t.Fatal("NEW_ORDER row missing")
	}
	orderLine, _ := e.Catalog().Table(TabOrderLine)
	for ol := int64(1); ol <= 2; ol++ {
		olrec, ok := orderLine.Peek(OrderLineKey(1, 1, oid, ol))
		if !ok || !olrec.Visible() {
			t.Fatalf("order line %d missing", ol)
		}
		if olrec.Tuple()[OLDeliveryD].Int() != 0 {
			t.Error("fresh order line already delivered")
		}
	}

	srec, _ = stock.Peek(StockKey(1, 10))
	gotQty := srec.Tuple()[SQuantity].Int()
	wantQty := qtyBefore - 4
	if wantQty < 10 {
		wantQty += 91
	}
	if gotQty != wantQty {
		t.Errorf("stock qty = %d, want %d", gotQty, wantQty)
	}
	if srec.Tuple()[SOrderCnt].Int() != 1 || srec.Tuple()[SYTD].Int() != 4 {
		t.Errorf("stock counters = %v", srec.Tuple())
	}
}

func TestNewOrderRollback(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)
	district, _ := e.Catalog().Table(TabDistrict)
	drec, _ := district.Peek(DistrictKey(1, 1))
	nextBefore := drec.Tuple()[DNextOID].Int()

	args := []storage.Value{
		storage.Int(1), storage.Int(1), storage.Int(3),
		storage.Int(1), storage.Int(777), storage.Int(1), // rbk=1
		storage.Int(int64(cfg.Items) + 1000), storage.Int(1), storage.Int(4),
	}
	if _, err := w.Run(ProcNewOrder, args...); err == nil ||
		!strings.Contains(err.Error(), "item not found") {
		t.Fatalf("rollback NewOrder: %v", err)
	}
	// Nothing must have leaked.
	drec, _ = district.Peek(DistrictKey(1, 1))
	if got := drec.Tuple()[DNextOID].Int(); got != nextBefore {
		t.Errorf("aborted NewOrder advanced next_o_id: %d", got)
	}
	orders, _ := e.Catalog().Table(TabOrders)
	if rec, ok := orders.Peek(OrderKey(1, 1, nextBefore)); ok && rec.Visible() {
		t.Error("aborted NewOrder committed an order row")
	}
	if err := CheckConsistency(e.Catalog(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentByIDAndByName(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)
	customer, _ := e.Catalog().Table(TabCustomer)
	warehouse, _ := e.Catalog().Table(TabWarehouse)
	wrec, _ := warehouse.Peek(WarehouseKey(1))
	wytdBefore := wrec.Tuple()[WYTDCents].Int()

	crec, _ := customer.Peek(CustomerKey(1, 1, 5))
	balBefore := crec.Tuple()[CBalanceCents].Int()

	// By id.
	_, err := w.Run(ProcPayment,
		storage.Int(1), storage.Int(1), storage.Int(1), storage.Int(1),
		storage.Int(5), storage.Str(""), storage.Int(1234),
		storage.Int(1), storage.Int(777))
	if err != nil {
		t.Fatal(err)
	}
	crec, _ = customer.Peek(CustomerKey(1, 1, 5))
	if got := crec.Tuple()[CBalanceCents].Int(); got != balBefore-1234 {
		t.Errorf("balance = %d, want %d", got, balBefore-1234)
	}
	if got := crec.Tuple()[CPaymentCnt].Int(); got != 2 { // population starts at 1
		t.Errorf("payment_cnt = %d", got)
	}
	wrec, _ = warehouse.Peek(WarehouseKey(1))
	if got := wrec.Tuple()[WYTDCents].Int(); got != wytdBefore+1234 {
		t.Errorf("warehouse ytd = %d", got)
	}
	history, _ := e.Catalog().Table(TabHistory)
	if history.Len() != 1 {
		t.Errorf("history rows = %d", history.Len())
	}

	// By last name: customer 2's load-time name is LastName(1).
	last := LastName(1)
	env, err := w.Run(ProcPayment,
		storage.Int(1), storage.Int(1), storage.Int(1), storage.Int(1),
		storage.Int(0), storage.Str(last), storage.Int(100),
		storage.Int(2), storage.Int(778))
	if err != nil {
		t.Fatal(err)
	}
	cid := env.Int("cid")
	crec, _ = customer.Peek(CustomerKey(1, 1, cid))
	if got := crec.Tuple()[CLast].Str(); got != last {
		t.Errorf("resolved customer %d has last name %q, want %q", cid, got, last)
	}

	// Unknown name aborts.
	if _, err := w.Run(ProcPayment,
		storage.Int(1), storage.Int(1), storage.Int(1), storage.Int(1),
		storage.Int(0), storage.Str("NOSUCHNAME"), storage.Int(100),
		storage.Int(3), storage.Int(779)); err == nil {
		t.Fatal("payment to unknown name accepted")
	}
}

func TestDeliveryEffects(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)

	newOrder, _ := e.Catalog().Table(TabNewOrder)
	// Find the oldest undelivered order of district 1 before.
	var oldest int64 = -1
	newOrder.RangeWalk(NewOrderKey(1, 1, 0), NewOrderKey(1, 1, (1<<24)-1),
		func(_ *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool {
			for _, r := range recs {
				if r.Visible() {
					_, _, oldest = SplitOrderKey(r.Key())
					return false
				}
			}
			return true
		})
	if oldest < 0 {
		t.Fatal("population left no undelivered orders")
	}
	orders, _ := e.Catalog().Table(TabOrders)
	orec, _ := orders.Peek(OrderKey(1, 1, oldest))
	cid := orec.Tuple()[OCID].Int()
	olCnt := orec.Tuple()[OOLCnt].Int()
	customer, _ := e.Catalog().Table(TabCustomer)
	crec, _ := customer.Peek(CustomerKey(1, 1, cid))
	balBefore := crec.Tuple()[CBalanceCents].Int()
	dcntBefore := crec.Tuple()[CDeliveryCnt].Int()

	if _, err := w.Run(ProcDelivery,
		storage.Int(1), storage.Int(7), storage.Int(9999),
		storage.Int(int64(cfg.DistrictsPerW))); err != nil {
		t.Fatal(err)
	}

	// NEW_ORDER entry gone.
	if rec, ok := newOrder.Peek(NewOrderKey(1, 1, oldest)); ok && rec.Visible() {
		t.Error("delivered NEW_ORDER entry still visible")
	}
	// Carrier stamped.
	orec, _ = orders.Peek(OrderKey(1, 1, oldest))
	if got := orec.Tuple()[OCarrierID].Int(); got != 7 {
		t.Errorf("carrier = %d", got)
	}
	// Lines stamped, amounts summed into the customer's balance.
	orderLine, _ := e.Catalog().Table(TabOrderLine)
	var sum int64
	for ol := int64(1); ol <= olCnt; ol++ {
		olrec, _ := orderLine.Peek(OrderLineKey(1, 1, oldest, ol))
		if got := olrec.Tuple()[OLDeliveryD].Int(); got != 9999 {
			t.Errorf("line %d delivery_d = %d", ol, got)
		}
		sum += olrec.Tuple()[OLAmountCents].Int()
	}
	crec, _ = customer.Peek(CustomerKey(1, 1, cid))
	if got := crec.Tuple()[CBalanceCents].Int(); got != balBefore+sum {
		t.Errorf("customer balance = %d, want %d", got, balBefore+sum)
	}
	if got := crec.Tuple()[CDeliveryCnt].Int(); got != dcntBefore+1 {
		t.Errorf("delivery_cnt = %d", got)
	}
	if err := CheckConsistency(e.Catalog(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStockLevelCountsLowStock(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)
	// Threshold above the maximum stock (100) counts every distinct
	// item in the window; threshold 0 counts none.
	// A returned Env lives until the worker's next transaction: read
	// the first result before running the second.
	envAll, err := w.Run(ProcStockLevel, storage.Int(1), storage.Int(1), storage.Int(101), storage.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	if envAll.Int("low") == 0 {
		t.Error("low with threshold 101 = 0; expected every scanned item")
	}
	envNone, err := w.Run(ProcStockLevel, storage.Int(1), storage.Int(1), storage.Int(0), storage.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	if envNone.Int("low") != 0 {
		t.Errorf("low with threshold 0 = %d", envNone.Int("low"))
	}
}

func TestOrderStatusFindsLastOrder(t *testing.T) {
	cfg := testConfig(1)
	e := singleEngine(t, cfg)
	w := e.Worker(0)

	// Give customer 3 a fresh order so their latest is known.
	args := []storage.Value{
		storage.Int(1), storage.Int(1), storage.Int(3),
		storage.Int(1), storage.Int(777), storage.Int(0),
		storage.Int(10), storage.Int(1), storage.Int(4),
	}
	envNO, err := w.Run(ProcNewOrder, args...)
	if err != nil {
		t.Fatal(err)
	}
	newOID := envNO.Int("oid") // envNO is reused by the next Run
	env, err := w.Run(ProcOrderStatus, storage.Int(1), storage.Int(1), storage.Int(3), storage.Str(""))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("found") != 1 {
		t.Fatal("no order found for customer with fresh order")
	}
	if env.Int("oid") != newOID {
		t.Errorf("last order id = %d, want %d", env.Int("oid"), newOID)
	}
	if env.Int("lines") != 1 {
		t.Errorf("lines = %d", env.Int("lines"))
	}
}

// TestNewOrderGraphMatchesFig15a spot-checks the NewOrder program
// dependency graph against the paper's Figure 15a: the district read
// produces the order id that keys the ORDERS/NEW_ORDER/ORDER_LINE
// inserts (key dependencies) and feeds the next_o_id bump (value
// dependency).
func TestNewOrderGraphMatchesFig15a(t *testing.T) {
	args := []storage.Value{
		storage.Int(1), storage.Int(1), storage.Int(3),
		storage.Int(2), storage.Int(777), storage.Int(0),
		storage.Int(10), storage.Int(1), storage.Int(4),
		storage.Int(20), storage.Int(1), storage.Int(2),
	}
	spec := newOrderSpec()
	prog := spec.Instantiate(spec.Bind(args))
	if prog.Independent {
		t.Fatal("NewOrder classified independent")
	}
	// Op 1 is readDistrict (produces oid).
	readDistrict := prog.Op(1)
	if readDistrict.Name != "readDistrict" {
		t.Fatalf("op 1 is %q", readDistrict.Name)
	}
	var keyKids, valKids []string
	for _, c := range readDistrict.KeyChildren() {
		keyKids = append(keyKids, c.Name)
	}
	for _, c := range readDistrict.ValChildren() {
		valKids = append(valKids, c.Name)
	}
	wantKey := map[string]bool{
		"insertOrder": true, "insertNewOrder": true,
		"insertOrderLine0": true, "insertOrderLine1": true,
	}
	for _, k := range keyKids {
		if !wantKey[k] {
			t.Errorf("unexpected key child %q", k)
		}
		delete(wantKey, k)
	}
	if len(wantKey) != 0 {
		t.Errorf("missing key children: %v (got %v)", wantKey, keyKids)
	}
	foundAdvance := false
	for _, v := range valKids {
		if v == "advanceDistrict" {
			foundAdvance = true
		}
	}
	if !foundAdvance {
		t.Errorf("advanceDistrict not value-dependent on readDistrict: %v", valKids)
	}
}

// TestDeliveryGraphChains verifies Figure 15b's per-district
// dependency chain: oldest -> delete/read/stamp -> lines -> customer.
func TestDeliveryGraphChains(t *testing.T) {
	spec := deliverySpec()
	args := []storage.Value{storage.Int(1), storage.Int(7), storage.Int(9), storage.Int(2)}
	prog := spec.Instantiate(spec.Bind(args))
	if prog.Independent {
		t.Fatal("Delivery classified independent")
	}
	// Per district: 6 ops. District 1's oldestNO is op 0.
	oldest := prog.Op(0)
	if !strings.HasPrefix(oldest.Name, "oldestNO") {
		t.Fatalf("op 0 is %q", oldest.Name)
	}
	if len(oldest.KeyChildren()) < 4 {
		t.Errorf("oldestNO has %d key children, want >=4 (delete, read, stamp, lines)",
			len(oldest.KeyChildren()))
	}
	// readOrder produces cid/olcnt, keying stampLines and
	// creditCustomer.
	readOrder := prog.Op(2)
	if !strings.HasPrefix(readOrder.Name, "readOrder") {
		t.Fatalf("op 2 is %q", readOrder.Name)
	}
	names := map[string]bool{}
	for _, c := range readOrder.KeyChildren() {
		names[c.Name] = true
	}
	if !names["stampLines1"] || !names["creditCustomer1"] {
		t.Errorf("readOrder key children = %v", names)
	}
}

// TestCompileShapes pins which TPC-C plans are static and which are
// argument-shaped. NewOrder reads ol_cnt, so every transaction is
// expanded to the shape of its own arguments (4 header ops, 2 order
// inserts, 3 per line, 1 total); StockLevel reads nothing, so the
// second call gets the first call's Program back without running Plan.
func TestCompileShapes(t *testing.T) {
	newOrder := newOrderSpec()
	for _, c := range []struct{ olCnt, ops int }{{5, 22}, {15, 52}, {5, 22}} {
		args := []storage.Value{storage.Int(1), storage.Int(1), storage.Int(1),
			storage.Int(int64(c.olCnt)), storage.Int(0), storage.Int(0)}
		for j := 0; j < c.olCnt; j++ {
			args = append(args, storage.Int(int64(j+1)), storage.Int(1), storage.Int(1))
		}
		prog, planned, err := newOrder.Compile(newOrder.Bind(args))
		if err != nil {
			t.Fatal(err)
		}
		if !planned || len(prog.Ops) != c.ops {
			t.Errorf("NewOrder ol_cnt=%d: planned=%v, %d ops, want a fresh expansion of %d ops", c.olCnt, planned, len(prog.Ops), c.ops)
		}
	}
	stockLevel := specByName(t, ProcStockLevel)
	args := []storage.Value{storage.Int(1), storage.Int(1), storage.Int(15)}
	first, planned, err := stockLevel.Compile(stockLevel.Bind(args))
	if err != nil || !planned {
		t.Fatalf("StockLevel first compile: planned=%v err=%v", planned, err)
	}
	again, planned, err := stockLevel.Compile(stockLevel.Bind(args))
	if err != nil || planned || again != first {
		t.Errorf("StockLevel second compile: planned=%v same=%v err=%v, want the published Program", planned, again == first, err)
	}
}
