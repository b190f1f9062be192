package bench

import (
	"testing"
	"time"

	"thedb/internal/workload/tpcc"
)

// TestRunTPCCAllSystems smoke-tests every engine configuration the
// experiments use: each must commit transactions and stay silent.
func TestRunTPCCAllSystems(t *testing.T) {
	systems := []System{THEDB, THEDBW, OCC, SILO, TPL, HYBRID, DT, OCCMinus, SILOMinus}
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			res := runTPCC(tpccRun{
				system:     sys,
				workers:    2,
				warehouses: 2,
				mix:        tpcc.StandardMix(),
				duration:   80 * time.Millisecond,
			})
			if res.agg.Committed == 0 {
				t.Fatalf("%s committed nothing", sys)
			}
		})
	}
}

func TestRunTPCCOptionsPaths(t *testing.T) {
	base := tpccRun{workers: 2, warehouses: 2, mix: tpcc.StandardMix(), duration: 60 * time.Millisecond}

	t.Run("detailed", func(t *testing.T) {
		r := base
		r.system, r.detailed = OCC, true
		res := runTPCC(r)
		var total int64
		for p := range res.agg.PhaseNS {
			total += res.agg.PhaseNS[p]
		}
		if total == 0 {
			t.Fatal("detailed metrics recorded no phase time")
		}
	})
	t.Run("adhoc", func(t *testing.T) {
		r := base
		r.system, r.adhocPct = THEDB, 100
		if res := runTPCC(r); res.agg.Committed == 0 {
			t.Fatal("no commits with 100% ad-hoc")
		}
	})
	t.Run("ablation", func(t *testing.T) {
		r := base
		r.system, r.noAccessCache, r.noReadCopies = THEDB, true, true
		if res := runTPCC(r); res.agg.Committed == 0 {
			t.Fatal("no commits under ablation")
		}
	})
	t.Run("logging", func(t *testing.T) {
		r := base
		r.system, r.logging = THEDB, true
		if res := runTPCC(r); res.agg.Committed == 0 {
			t.Fatal("no commits with logging")
		}
	})
	t.Run("procOnly", func(t *testing.T) {
		r := base
		r.system, r.procOnly = THEDB, tpcc.ProcNewOrder
		res := runTPCC(r)
		for p := range res.perProc {
			if p != tpcc.ProcNewOrder {
				t.Fatalf("sampled %s despite procOnly", p)
			}
		}
	})
}

func TestRunSmallbank(t *testing.T) {
	for _, sys := range []System{THEDB, OCC, SILO} {
		res := runSmallbank(smallbankRun{
			system:   sys,
			workers:  2,
			theta:    0.9,
			duration: 60 * time.Millisecond,
		})
		if res.agg.Committed == 0 {
			t.Fatalf("%s committed nothing", sys)
		}
		if res.latency.Len() == 0 {
			t.Fatalf("%s recorded no latencies", sys)
		}
	}
}

func TestSamplerStats(t *testing.T) {
	s := &Sampler{}
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if p := s.Percentile(95); p < 90 || p > 100 {
		t.Fatalf("p95 = %f", p)
	}
	if sh := s.Share(1, 51); sh < 0.45 || sh > 0.55 {
		t.Fatalf("share = %f", sh)
	}
	o := &Sampler{}
	o.Merge(s)
	if o.Len() != 100 {
		t.Fatalf("merged len = %d", o.Len())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig8", "fig9", "fig10", "fig11", "fig12", "tab1", "fig13",
		"tab2", "fig14", "fig15", "tab3", "tab4", "fig16", "fig17", "fig18",
		"tab5", "fig19", "fig20", "tab6", "xlock", "xinterleave",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, ok := Lookup("fig10"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted unknown id")
	}
}
