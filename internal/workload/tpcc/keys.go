package tpcc

import "thedb/internal/storage"

// Key packing. Warehouse and district ids occupy the top 24 bits of
// every warehouse-scoped key, so the ordered indexes sharded at
// ShardShift 40 keep each district's entries in a private sub-tree
// and range scans never cross districts.
//
//	WAREHOUSE   [w:16]
//	DISTRICT    [w:16][d:8]
//	CUSTOMER    [w:16][d:8][c:24]
//	HISTORY     [w:16][d:8][h:40]   (client-generated unique id)
//	NEW_ORDER   [w:16][d:8][o:24]
//	ORDERS      [w:16][d:8][o:24]
//	ORDER_LINE  [w:16][d:8][o:24][ol:8]
//	ITEM        [i:32]
//	STOCK       [w:16][i:32]

var (
	wWidths  = []uint8{16}
	wdWidths = []uint8{16, 8}
	cWidths  = []uint8{16, 8, 24}
	hWidths  = []uint8{16, 8, 40}
	oWidths  = []uint8{16, 8, 24}
	olWidths = []uint8{16, 8, 24, 8}
	iWidths  = []uint8{32}
	sWidths  = []uint8{16, 32}
)

// WarehouseKey builds a WAREHOUSE primary key.
func WarehouseKey(w int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w)}, wWidths)
}

// DistrictKey builds a DISTRICT primary key.
func DistrictKey(w, d int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d)}, wdWidths)
}

// CustomerKey builds a CUSTOMER primary key.
func CustomerKey(w, d, c int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d), uint64(c)}, cWidths)
}

// SplitCustomerKey decomposes a CUSTOMER key.
func SplitCustomerKey(k storage.Key) (w, d, c int64) {
	return int64(k.Component(0, cWidths)), int64(k.Component(1, cWidths)), int64(k.Component(2, cWidths))
}

// HistoryKey builds a HISTORY primary key from a client-generated
// unique id.
func HistoryKey(w, d, h int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d), uint64(h)}, hWidths)
}

// NewOrderKey builds a NEW_ORDER primary key.
func NewOrderKey(w, d, o int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d), uint64(o)}, oWidths)
}

// OrderKey builds an ORDERS primary key.
func OrderKey(w, d, o int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d), uint64(o)}, oWidths)
}

// SplitOrderKey decomposes an ORDERS or NEW_ORDER key.
func SplitOrderKey(k storage.Key) (w, d, o int64) {
	return int64(k.Component(0, oWidths)), int64(k.Component(1, oWidths)), int64(k.Component(2, oWidths))
}

// OrderLineKey builds an ORDER_LINE primary key.
func OrderLineKey(w, d, o, ol int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(d), uint64(o), uint64(ol)}, olWidths)
}

// ItemKey builds an ITEM primary key.
func ItemKey(i int64) storage.Key {
	return storage.PackKey([]uint64{uint64(i)}, iWidths)
}

// StockKey builds a STOCK primary key.
func StockKey(w, i int64) storage.Key {
	return storage.PackKey([]uint64{uint64(w), uint64(i)}, sWidths)
}
