package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"

	"thedb"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
	"thedb/internal/workload/zipf"
)

// class is a request's procedure, the key of the per-procedure latency
// split (proc.<class>_p50_us).
type class int

const (
	clsNewOrder class = iota
	clsPayment
	clsOrderStatus
	clsDelivery
	clsStockLevel
	clsRead
	clsUpdate
	clsSnapScan
	numClasses
)

var classNames = [numClasses]string{
	"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel", "Read", "Update", "SnapScan",
}

var tpccClass = map[string]class{
	tpcc.ProcNewOrder:    clsNewOrder,
	tpcc.ProcPayment:     clsPayment,
	tpcc.ProcOrderStatus: clsOrderStatus,
	tpcc.ProcDelivery:    clsDelivery,
	tpcc.ProcStockLevel:  clsStockLevel,
}

// writes reports whether a committed request of this class changes
// rows (the denominator of mvcc.versions_installed_per_update).
func (c class) writes() bool {
	switch c {
	case clsNewOrder, clsPayment, clsDelivery, clsUpdate:
		return true
	}
	return false
}

// request is one generated stored-procedure invocation.
type request struct {
	class class
	proc  string
	args  []thedb.Value
}

// tapeLen is the length of each caller's pre-generated YCSB ring.
const tapeLen = 1 << 16

// ycsbTape pre-generates one caller's request ring. The benchmark owns
// this generator because ycsb.Gen.Next hard-codes its seed and formats
// a value string per request, which would bill a fmt.Sprintf to an
// engine whose whole transaction is a few microseconds.
func ycsbTape(seed int64, caller int, mix ycsb.Mix, zg *zipf.Generator, n int) []request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller)*104729 + 3))
	records := int(zg.N())
	tape := make([]request, n)
	for i := range tape {
		key := thedb.Int(int64(zg.Next(rng.Float64())))
		p := rng.Intn(100)
		switch {
		case p < mix.ReadPct:
			tape[i] = request{clsRead, ycsb.ProcRead, []thedb.Value{key}}
		case p < mix.ReadPct+mix.UpdatePct:
			val := "c" + strconv.Itoa(caller) + "-" + strconv.FormatInt(int64(rng.Int31()), 10)
			tape[i] = request{clsUpdate, ycsb.ProcUpdate, []thedb.Value{
				key, thedb.Int(int64(rng.Intn(ycsb.Fields))), thedb.Str(val)}}
		default:
			// Long scans start at a uniform key so they sweep cold and
			// hot ranges alike (as ycsb.Gen does).
			tape[i] = request{clsSnapScan, ycsb.ProcSnapScan, []thedb.Value{
				thedb.Int(int64(rng.Intn(records))), thedb.Int(int64(200 + rng.Intn(801)))}}
		}
	}
	return tape
}

// tpccRequest draws the next TPC-C request. It is called inline, not
// from a ring: a ring would replay HISTORY keys and order dates.
func tpccRequest(g *tpcc.Gen) request {
	r := g.Next()
	return request{tpccClass[r.Proc], r.Proc, r.Args}
}

// tapeHash digests a request sequence: same seed, same hash.
func tapeHash(tape []request) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range tape {
		h.Write([]byte(r.proc))
		for _, a := range r.args {
			if a.Kind() == thedb.KindString {
				h.Write([]byte(a.Str()))
			} else {
				binary.LittleEndian.PutUint64(b[:], uint64(a.Int()))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
