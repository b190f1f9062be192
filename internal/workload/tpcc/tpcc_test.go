package tpcc

import (
	"sync"
	"testing"

	"thedb/internal/core"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

func testConfig(warehouses int) Config {
	return Config{
		Warehouses:           warehouses,
		DistrictsPerW:        4,
		CustomersPerDistrict: 40,
		Items:                100,
		InitOrdersPerDist:    20,
		Seed:                 7,
	}
}

func buildCatalog(t *testing.T, cfg Config) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	for _, s := range Schemas(0) {
		cat.MustCreateTable(s)
	}
	if err := Populate(cat, cfg); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestPopulateConsistent(t *testing.T) {
	cfg := testConfig(2)
	cat := buildCatalog(t, cfg)
	if err := CheckConsistency(cat, cfg); err != nil {
		t.Fatal(err)
	}
	item, _ := cat.Table(TabItem)
	if item.Len() != cfg.Items {
		t.Errorf("items = %d, want %d", item.Len(), cfg.Items)
	}
	customer, _ := cat.Table(TabCustomer)
	want := cfg.Warehouses * cfg.DistrictsPerW * cfg.CustomersPerDistrict
	if customer.Len() != want {
		t.Errorf("customers = %d, want %d", customer.Len(), want)
	}
}

func TestProgramsValidate(t *testing.T) {
	cfg := testConfig(1)
	gen := NewGen(cfg, StandardMix(), 0)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		req := gen.Next()
		seen[req.Proc] = true
		spec := specByName(t, req.Proc)
		prog := spec.Instantiate(spec.Bind(req.Args))
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", req.Proc, err)
		}
	}
	for _, p := range []string{ProcNewOrder, ProcPayment, ProcOrderStatus, ProcDelivery, ProcStockLevel} {
		if !seen[p] {
			t.Errorf("mix never produced %s in 200 draws", p)
		}
	}
}

func specByName(t *testing.T, name string) *proc.Spec {
	t.Helper()
	for _, s := range Specs() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no spec %q", name)
	return nil
}

// TestMixedWorkloadConsistency is the workhorse: several workers run
// the full TPC-C mix concurrently on a small contended database under
// every serializable protocol, then the TPC-C consistency conditions
// must hold exactly.
func TestMixedWorkloadConsistency(t *testing.T) {
	const (
		workers = 4
		txnsPer = 150
	)
	for _, p := range []core.Protocol{core.Healing, core.OCC, core.Silo, core.TPL, core.Hybrid} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(1) // single warehouse: maximum contention
			cat := buildCatalog(t, cfg)
			e := core.NewEngine(cat, core.Options{Protocol: p, Workers: workers})
			for _, s := range Specs() {
				e.MustRegister(s)
			}
			e.Start()
			defer e.Stop()

			var wg sync.WaitGroup
			for wi := 0; wi < workers; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					gen := NewGen(cfg, StandardMix(), wi)
					w := e.Worker(wi)
					for i := 0; i < txnsPer; i++ {
						req := gen.Next()
						_, err := w.Run(req.Proc, req.Args...)
						if err != nil && !isUserAbort(err) {
							t.Errorf("worker %d %s: %v", wi, req.Proc, err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()

			if err := CheckConsistency(cat, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func isUserAbort(err error) bool {
	var ua *proc.AbortError
	return errorsAs(err, &ua)
}

func errorsAs(err error, target any) bool {
	type causer interface{ Unwrap() error }
	for err != nil {
		if ae, ok := err.(*proc.AbortError); ok {
			*(target.(**proc.AbortError)) = ae
			return true
		}
		if c, ok := err.(causer); ok {
			err = c.Unwrap()
			continue
		}
		return false
	}
	return false
}

// TestDeterministicEngineConsistency runs the same mixed workload on
// THEDB-DT, whose only concurrency control is the warehouse stripes
// each procedure's Home names.
func TestDeterministicEngineConsistency(t *testing.T) {
	const (
		workers = 4
		txnsPer = 150
	)
	cfg := testConfig(2)
	cat := buildCatalog(t, cfg)
	e := core.NewEngine(cat, core.Options{Protocol: core.DT, Workers: workers, Interleave: true})
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	e.Start()
	defer e.Stop()

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			mix := StandardMix()
			mix.RemotePct = 10
			gen := NewGen(cfg, mix, wi)
			w := e.Worker(wi)
			for i := 0; i < txnsPer; i++ {
				req := gen.Next()
				if _, err := w.Run(req.Proc, req.Args...); err != nil && !isUserAbort(err) {
					t.Errorf("worker %d %s: %v", wi, req.Proc, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()

	if err := CheckConsistency(cat, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHealingRacingNewOrders drives the paper's marquee scenario
// directly: many concurrent NewOrders on one district. Under healing
// the district read heals and the order inserts re-execute with fresh
// ids (membership update); order ids must come out dense and unique.
func TestHealingRacingNewOrders(t *testing.T) {
	const (
		workers = 4
		txnsPer = 100
	)
	cfg := testConfig(1)
	cfg.DistrictsPerW = 1 // one district: every NewOrder collides
	cat := buildCatalog(t, cfg)
	e := core.NewEngine(cat, core.Options{Protocol: core.Healing, Workers: workers})
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	e.Start()
	defer e.Stop()

	var wg sync.WaitGroup
	committed := make([]int64, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			mix := Mix{NewOrderOnly: true, RollbackPct: 0}
			gen := NewGen(cfg, mix, wi)
			w := e.Worker(wi)
			for i := 0; i < txnsPer; i++ {
				req := gen.NewOrder()
				if _, err := w.Run(req.Proc, req.Args...); err != nil {
					t.Errorf("worker %d: %v", wi, err)
					return
				}
				committed[wi]++
			}
		}(wi)
	}
	wg.Wait()

	if err := CheckConsistency(cat, cfg); err != nil {
		t.Fatal(err)
	}
	district, _ := cat.Table(TabDistrict)
	drec, _ := district.Peek(DistrictKey(1, 1))
	var total int64
	for _, c := range committed {
		total += c
	}
	wantNext := int64(cfg.InitOrdersPerDist) + total + 1
	if got := drec.Tuple()[DNextOID].Int(); got != wantNext {
		t.Errorf("next_o_id = %d, want %d (every committed NewOrder advances it exactly once)", got, wantNext)
	}
}
