package tpcc

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// byName returns the last name a by-name Payment or OrderStatus
// request selects its customer by, or "" for a by-id request.
func byName(r Request) string {
	switch r.Proc {
	case ProcPayment:
		return r.Args[5].Str()
	case ProcOrderStatus:
		return r.Args[3].Str()
	}
	return ""
}

// TestGenByNameDrawsLoadedNames: Populate gives the customers of a
// district the names 0 … C−1 when C < 1000, so a by-name request must
// draw from that range. At Scaled's 120 customers the full NURand(255,
// 0, 999) range named a missing customer most of the time, and the
// transaction became a no-op user abort.
func TestGenByNameDrawsLoadedNames(t *testing.T) {
	cfg := Scaled(1)
	loaded := make(map[string]bool, cfg.CustomersPerDistrict)
	for i := 0; i < cfg.CustomersPerDistrict; i++ {
		loaded[LastName(i)] = true
	}
	for worker := 0; worker < 4; worker++ {
		g := NewGen(cfg, StandardMix(), worker)
		drawn := 0
		for i := 0; i < 20000; i++ {
			last := byName(g.Next())
			if last == "" {
				continue
			}
			drawn++
			if !loaded[last] {
				t.Fatalf("worker %d request %d names %q, which no customer of %d per district has",
					worker, i, last, cfg.CustomersPerDistrict)
			}
		}
		if drawn == 0 {
			t.Fatalf("worker %d drew no by-name request", worker)
		}
	}
}

// TestGenStreamAtThousandCustomers pins the request stream at 1,000
// customers per district, the benchmark's TPC-C scale: every name in
// [0, 999] exists there, and the by-name draw consumes the generator's
// random source exactly as the full NURand(255, 0, 999) draw did, so
// the traffic is byte for byte the stream the digest was taken from.
func TestGenStreamAtThousandCustomers(t *testing.T) {
	cfg := Config{Warehouses: 2, DistrictsPerW: 10, CustomersPerDistrict: 1000,
		Items: 10000, InitOrdersPerDist: 300, Seed: 42}
	h := fnv.New64a()
	for worker := 0; worker < 2; worker++ {
		g := NewGen(cfg, StandardMix(), worker)
		for i := 0; i < 5000; i++ {
			r := g.Next()
			fmt.Fprintf(h, "%s%v%v;", r.Proc, r.Args, r.CrossPartition)
		}
	}
	const want uint64 = 0xd105d292fa915f8a
	if got := h.Sum64(); got != want {
		t.Errorf("stream digest = %#x, want %#x", got, want)
	}
}
