package tpcc

import (
	"fmt"
	"math/rand"

	"thedb/internal/storage"
)

// Config scales the database. The standard TPC-C scale (10 districts,
// 3000 customers per district, 100k items) can be reduced for test
// and laptop-scale runs; the contention behaviour the paper measures
// depends on the warehouse count, not the absolute table sizes.
type Config struct {
	Warehouses           int
	DistrictsPerW        int
	CustomersPerDistrict int
	Items                int
	InitOrdersPerDist    int // initially loaded orders per district
	Seed                 int64
}

// Standard returns the full TPC-C scale for w warehouses.
func Standard(w int) Config {
	return Config{
		Warehouses:           w,
		DistrictsPerW:        10,
		CustomersPerDistrict: 3000,
		Items:                100000,
		InitOrdersPerDist:    3000,
		Seed:                 42,
	}
}

// Scaled returns a laptop-scale configuration preserving the
// contention structure: full district count, reduced customers,
// items and preloaded orders.
func Scaled(w int) Config {
	return Config{
		Warehouses:           w,
		DistrictsPerW:        10,
		CustomersPerDistrict: 120,
		Items:                2000,
		InitOrdersPerDist:    60,
		Seed:                 42,
	}
}

// defaults fills zero fields.
func (c *Config) defaults() {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.DistrictsPerW <= 0 {
		c.DistrictsPerW = 10
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items <= 0 {
		c.Items = 100000
	}
	if c.InitOrdersPerDist < 0 {
		c.InitOrdersPerDist = 0
	}
}

// lastNames are the TPC-C syllables for customer last names.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds the TPC-C last name for a number in [0, 999].
func LastName(num int) string {
	return lastNameSyllables[num/100] + lastNameSyllables[(num/10)%10] + lastNameSyllables[num%10]
}

// lastNameFor picks the name number used at population time: per
// spec, customer i (1-based) with i <= 1000 uses i-1, otherwise
// NURand(255, 0, 999).
func lastNameFor(rng *rand.Rand, c int) string {
	if c <= 1000 {
		return LastName(c - 1)
	}
	return LastName(int(nuRand(rng, 255, 0, 999)))
}

func randStr(rng *rand.Rand, minLen, maxLen int) string {
	n := minLen + rng.Intn(maxLen-minLen+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// Populate loads the database at the given scale. It must run before
// the engine starts processing transactions.
func Populate(cat *storage.Catalog, cfg Config) error {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := func(name string) *storage.Table {
		t, ok := cat.Table(name)
		if !ok {
			panic(fmt.Sprintf("tpcc: catalog missing table %s", name))
		}
		return t
	}
	warehouse := tab(TabWarehouse)
	district := tab(TabDistrict)
	customer := tab(TabCustomer)
	orders := tab(TabOrders)
	newOrder := tab(TabNewOrder)
	orderLine := tab(TabOrderLine)
	item := tab(TabItem)
	stock := tab(TabStock)
	ins := storage.NewInstaller()

	// ITEM (shared across warehouses).
	for i := 1; i <= cfg.Items; i++ {
		ins.Put(item, ItemKey(int64(i)), storage.Tuple{
			storage.Int(int64(1 + rng.Intn(10000))),  // im_id
			storage.Str(fmt.Sprintf("item-%06d", i)), // name
			storage.Int(int64(100 + rng.Intn(9901))), // price: $1.00-$100.00
			storage.Str(randStr(rng, 26, 50)),        // data
		}, 0)
	}

	for w := 1; w <= cfg.Warehouses; w++ {
		ins.Put(warehouse, WarehouseKey(int64(w)), storage.Tuple{
			storage.Str(fmt.Sprintf("wh-%03d", w)),
			storage.Str(randStr(rng, 10, 20)),
			storage.Str(randStr(rng, 10, 20)),
			storage.Str("ST"),
			storage.Str("123456789"),
			storage.Int(int64(rng.Intn(2001))), // tax: 0-20.00%
			// ytd: $30,000 per district so W_YTD = Σ D_YTD holds at
			// load time (consistency condition 1).
			storage.Int(3000000 * int64(cfg.DistrictsPerW)),
		}, 0)

		for i := 1; i <= cfg.Items; i++ {
			ins.Put(stock, StockKey(int64(w), int64(i)), storage.Tuple{
				storage.Int(int64(10 + rng.Intn(91))), // quantity 10-100
				storage.Int(0),                        // ytd
				storage.Int(0),                        // order_cnt
				storage.Int(0),                        // remote_cnt
				storage.Str(randStr(rng, 24, 24)),     // dist_all
				storage.Str(randStr(rng, 26, 50)),     // data
			}, 0)
		}

		for d := 1; d <= cfg.DistrictsPerW; d++ {
			nextOID := int64(cfg.InitOrdersPerDist + 1)
			ins.Put(district, DistrictKey(int64(w), int64(d)), storage.Tuple{
				storage.Str(fmt.Sprintf("dist-%03d-%02d", w, d)),
				storage.Str(randStr(rng, 10, 20)),
				storage.Str(randStr(rng, 10, 20)),
				storage.Str("ST"),
				storage.Str("123456789"),
				storage.Int(int64(rng.Intn(2001))),
				storage.Int(3000000), // ytd: $30,000
				storage.Int(nextOID),
			}, 0)

			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				ins.Put(customer, CustomerKey(int64(w), int64(d), int64(c)), storage.Tuple{
					storage.Str(randStr(rng, 8, 16)),   // first
					storage.Str("OE"),                  // middle
					storage.Str(lastNameFor(rng, c)),   // last
					storage.Str(randStr(rng, 10, 20)),  // street
					storage.Str(randStr(rng, 10, 20)),  // city
					storage.Str("ST"),                  // state
					storage.Str("123456789"),           // zip
					storage.Str("0123456789012345"),    // phone
					storage.Int(0),                     // since
					storage.Str(credit),                // credit
					storage.Int(5000000),               // credit_lim: $50,000
					storage.Int(int64(rng.Intn(5001))), // discount: 0-50.00%
					storage.Int(-1000),                 // balance: -$10.00
					storage.Int(1000),                  // ytd_payment: $10.00
					storage.Int(1),                     // payment_cnt
					storage.Int(0),                     // delivery_cnt
					storage.Str(randStr(rng, 30, 60)),  // data
				}, 0)
			}

			// Initial orders: the most recent 30% stay undelivered
			// (present in NEW_ORDER), matching the spec's 2101-3000
			// window proportionally.
			undeliveredFrom := cfg.InitOrdersPerDist - cfg.InitOrdersPerDist*3/10 + 1
			perm := rng.Perm(cfg.CustomersPerDistrict)
			for o := 1; o <= cfg.InitOrdersPerDist; o++ {
				cid := int64(perm[(o-1)%cfg.CustomersPerDistrict] + 1)
				olCnt := int64(5 + rng.Intn(11))
				carrier := int64(1 + rng.Intn(10))
				delivered := o < undeliveredFrom
				if !delivered {
					carrier = 0
				}
				ins.Put(orders, OrderKey(int64(w), int64(d), int64(o)), storage.Tuple{
					storage.Int(cid),
					storage.Int(int64(o)), // entry_d
					storage.Int(carrier),
					storage.Int(olCnt),
					storage.Int(1),
				}, 0)
				if !delivered {
					ins.Put(newOrder, NewOrderKey(int64(w), int64(d), int64(o)), storage.Tuple{
						storage.Int(int64(o)),
					}, 0)
				}
				for ol := int64(1); ol <= olCnt; ol++ {
					amount := int64(0)
					deliveryD := int64(o)
					if !delivered {
						amount = int64(1 + rng.Intn(999999))
						deliveryD = 0
					}
					ins.Put(orderLine, OrderLineKey(int64(w), int64(d), int64(o), ol), storage.Tuple{
						storage.Int(int64(1 + rng.Intn(cfg.Items))),
						storage.Int(int64(w)),
						storage.Int(deliveryD),
						storage.Int(5),
						storage.Int(amount),
						storage.Str(randStr(rng, 24, 24)),
					}, 0)
				}
			}
		}
	}
	return ins.Wait()
}
