package ycsb

import (
	"strings"
	"sync"
	"testing"

	"thedb/internal/core"
	"thedb/internal/storage"
)

func build(t *testing.T, n int, p core.Protocol) *core.Engine {
	t.Helper()
	cat := storage.NewCatalog()
	cat.MustCreateTable(Schema())
	if err := Populate(cat, n, 8); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cat, core.Options{Protocol: p, Workers: 4, Interleave: true})
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	return e
}

func TestAllProceduresIndependent(t *testing.T) {
	args := map[string][]storage.Value{
		ProcRead:   {storage.Int(1)},
		ProcUpdate: {storage.Int(1), storage.Int(0), storage.Str("x")},
		ProcInsert: {storage.Int(99), storage.Str("x")},
		ProcScan:   {storage.Int(0), storage.Int(5)},
		ProcRMW:    {storage.Int(1), storage.Int(0), storage.Str("x")},
	}
	for _, s := range Specs() {
		prog := s.Instantiate(s.Bind(args[s.Name]))
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !prog.Independent {
			t.Errorf("%s classified dependent", s.Name)
		}
	}
}

func TestBasicOps(t *testing.T) {
	e := build(t, 50, core.Healing)
	w := e.Worker(0)

	env, err := w.Run(ProcRead, storage.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if env.Str("f0") == "" {
		t.Fatal("read returned empty field")
	}
	if _, err := w.Run(ProcUpdate, storage.Int(3), storage.Int(0), storage.Str("updated")); err != nil {
		t.Fatal(err)
	}
	env, _ = w.Run(ProcRead, storage.Int(3))
	if env.Str("f0") != "updated" {
		t.Fatalf("f0 = %q after update", env.Str("f0"))
	}
	if _, err := w.Run(ProcInsert, storage.Int(1000), storage.Str("new")); err != nil {
		t.Fatal(err)
	}
	env, err = w.Run(ProcScan, storage.Int(0), storage.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("rows") != 10 {
		t.Fatalf("scan rows = %d", env.Int("rows"))
	}
	if _, err := w.Run(ProcRMW, storage.Int(3), storage.Int(1), storage.Str("chained")); err != nil {
		t.Fatal(err)
	}
	env, _ = w.Run(ProcRead, storage.Int(3))
	_ = env
}

// TestRMWNoLostUpdates hammers one hot record with chained RMWs from
// all workers under every protocol; the chain depth in the final
// value must equal the committed RMW count (a lost update breaks the
// chain).
func TestRMWNoLostUpdates(t *testing.T) {
	for _, p := range []core.Protocol{core.Healing, core.OCC, core.Silo, core.TPL} {
		t.Run(p.String(), func(t *testing.T) {
			const perWorker = 150
			e := build(t, 10, p)
			e.Start()
			defer e.Stop()
			cat := e.Catalog()
			tab, _ := cat.Table(TabUser)
			// Reset field 0 to a marker.
			rec, _ := tab.Peek(0)
			tup := rec.Tuple().Clone()
			tup[0] = storage.Str("base")
			rec.SetTuple(tup)

			// Count commits via a counter-style chain: every RMW on
			// field 0 of key 0 prepends its tag.
			var wg sync.WaitGroup
			for wi := 0; wi < 4; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					w := e.Worker(wi)
					for i := 0; i < perWorker; i++ {
						if _, err := w.Run(ProcRMW, storage.Int(0), storage.Int(0), storage.Str("t")); err != nil {
							t.Error(err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()
			rec, _ = tab.Peek(0)
			v := rec.Tuple()[0].Str()
			// Value is "t|t|t|...t|<truncated old>"; with truncation at
			// 64 chars we cannot count the whole chain, but each commit
			// must have observed the previous value: verify the prefix
			// structure and that at least the last writes chained.
			if !strings.HasPrefix(v, "t|") {
				t.Fatalf("final value %q lacks the chain structure", v)
			}
			m := e.Metrics(0)
			if m.Committed != 4*perWorker {
				t.Fatalf("committed = %d, want %d", m.Committed, 4*perWorker)
			}
		})
	}
}

func TestGenMixes(t *testing.T) {
	counts := map[string]int{}
	g := NewGen(WorkloadA, 100, 0.5, 0)
	for i := 0; i < 2000; i++ {
		p, args := g.Next()
		counts[p]++
		if len(args) == 0 {
			t.Fatal("empty args")
		}
	}
	if counts[ProcRead] < 800 || counts[ProcUpdate] < 800 {
		t.Fatalf("workload A mix skewed: %v", counts)
	}
	if counts[ProcInsert]+counts[ProcScan]+counts[ProcRMW] != 0 {
		t.Fatalf("workload A produced foreign ops: %v", counts)
	}

	counts = map[string]int{}
	g = NewGen(WorkloadE, 100, 0.5, 1)
	seenKeys := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		p, args := g.Next()
		counts[p]++
		if p == ProcInsert {
			k := args[0].Int()
			if seenKeys[k] {
				t.Fatalf("insert key %d repeated", k)
			}
			seenKeys[k] = true
		}
	}
	if counts[ProcScan] < 1700 {
		t.Fatalf("workload E mix skewed: %v", counts)
	}
}

// TestConcurrentWorkloadARunsCleanUnderHealing: update-heavy skewed
// traffic must never restart under healing (independent txns).
func TestConcurrentWorkloadARunsCleanUnderHealing(t *testing.T) {
	e := build(t, 100, core.Healing)
	e.Start()
	defer e.Stop()
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			g := NewGen(WorkloadA, 100, 0.9, wi)
			w := e.Worker(wi)
			for i := 0; i < 300; i++ {
				p, args := g.Next()
				if _, err := w.Run(p, args...); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	m := e.Metrics(0)
	if m.Restarts != 0 {
		t.Fatalf("healing restarted %d independent YCSB transactions", m.Restarts)
	}
	if m.Committed != 4*300 {
		t.Fatalf("committed = %d", m.Committed)
	}
}

// TestProgramsSharedAcrossWorkers: no YCSB plan reads an argument, so
// each procedure is compiled once and all four workers run the same
// Program concurrently — point reads, writes, inserts, validated scans
// and snapshot scans alike. The race detector is the judge of the
// sharing; the counter is the judge of "once".
func TestProgramsSharedAcrossWorkers(t *testing.T) {
	const n = 200
	e := build(t, n, core.Healing)
	e.Start()
	defer e.Stop()
	mix := Mix{ReadPct: 20, UpdatePct: 20, InsertPct: 15, ScanPct: 15, SnapScanPct: 15} // the rest is RMW
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			g := NewGen(mix, n, 0.9, wi)
			w := e.Worker(wi)
			for i := 0; i < 400; i++ {
				p, args := g.Next()
				run := w.Run
				if IsReadOnly(p) {
					run = w.RunSnapshot
				}
				if _, err := run(p, args...); err != nil {
					t.Errorf("worker %d %s: %v", wi, p, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	m := e.Metrics(0)
	if m.Committed != 4*400 {
		t.Errorf("committed = %d, want %d", m.Committed, 4*400)
	}
	if want := int64(len(Specs())); m.PlanExpansions != want {
		t.Errorf("PlanExpansions = %d over %d transactions, want one per procedure (%d)", m.PlanExpansions, m.Committed, want)
	}
}
