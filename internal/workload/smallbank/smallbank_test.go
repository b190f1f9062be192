package smallbank

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"thedb/internal/core"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/workload/zipf"
)

func build(t *testing.T, n int, opts core.Options) *core.Engine {
	t.Helper()
	cat := storage.NewCatalog()
	for _, s := range Schemas() {
		cat.MustCreateTable(s)
	}
	if err := Populate(cat, n, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cat, opts)
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	return e
}

func TestAllProceduresIndependent(t *testing.T) {
	// Every Smallbank procedure's read/write set is determined by its
	// arguments (§4.6), the property behind Table 2's zero abort rate
	// for THEDB.
	args := map[string][]storage.Value{
		ProcBalance:         {storage.Int(1)},
		ProcDepositChecking: {storage.Int(1), storage.Int(5)},
		ProcTransactSavings: {storage.Int(1), storage.Int(5)},
		ProcAmalgamate:      {storage.Int(1), storage.Int(2)},
		ProcWriteCheck:      {storage.Int(1), storage.Int(5)},
		ProcSendPayment:     {storage.Int(1), storage.Int(2), storage.Int(5)},
	}
	for _, s := range Specs() {
		prog := s.Instantiate(s.Bind(args[s.Name]))
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !prog.Independent {
			t.Errorf("%s is classified dependent", s.Name)
		}
	}
}

func TestProcedureSemantics(t *testing.T) {
	e := build(t, 4, core.Options{Protocol: core.Healing, Workers: 1})
	w := e.Worker(0)
	sav, _ := e.Catalog().Table(TabSavings)
	chk, _ := e.Catalog().Table(TabChecking)
	savOf := func(k int64) int64 { r, _ := sav.Peek(storage.Key(k)); return r.Tuple()[0].Int() }
	chkOf := func(k int64) int64 { r, _ := chk.Peek(storage.Key(k)); return r.Tuple()[0].Int() }

	env, err := w.Run(ProcBalance, storage.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("total") != 2000 {
		t.Fatalf("Balance = %d", env.Int("total"))
	}

	if _, err := w.Run(ProcDepositChecking, storage.Int(0), storage.Int(100)); err != nil {
		t.Fatal(err)
	}
	if chkOf(0) != 1100 {
		t.Fatalf("checking = %d after deposit", chkOf(0))
	}

	if _, err := w.Run(ProcTransactSavings, storage.Int(0), storage.Int(-200)); err != nil {
		t.Fatal(err)
	}
	if savOf(0) != 800 {
		t.Fatalf("savings = %d after withdrawal", savOf(0))
	}
	// Overdraft aborts and leaves state untouched.
	if _, err := w.Run(ProcTransactSavings, storage.Int(0), storage.Int(-10000)); err == nil ||
		!strings.Contains(err.Error(), "overdraft") {
		t.Fatalf("overdraft: %v", err)
	}
	if savOf(0) != 800 {
		t.Fatal("failed withdrawal changed the balance")
	}

	if _, err := w.Run(ProcAmalgamate, storage.Int(0), storage.Int(1)); err != nil {
		t.Fatal(err)
	}
	if savOf(0) != 0 || chkOf(0) != 0 {
		t.Fatalf("amalgamate left src with %d/%d", savOf(0), chkOf(0))
	}
	if chkOf(1) != 1000+800+1100 {
		t.Fatalf("amalgamate target checking = %d", chkOf(1))
	}

	if _, err := w.Run(ProcWriteCheck, storage.Int(2), storage.Int(500)); err != nil {
		t.Fatal(err)
	}
	if chkOf(2) != 500 {
		t.Fatalf("checking = %d after covered check", chkOf(2))
	}
	// Overdraft check: $1 penalty.
	if _, err := w.Run(ProcWriteCheck, storage.Int(2), storage.Int(2000)); err != nil {
		t.Fatal(err)
	}
	if chkOf(2) != 500-2001 {
		t.Fatalf("checking = %d after bounced check", chkOf(2))
	}

	if _, err := w.Run(ProcSendPayment, storage.Int(3), storage.Int(1), storage.Int(250)); err != nil {
		t.Fatal(err)
	}
	if chkOf(3) != 750 {
		t.Fatalf("payment source = %d", chkOf(3))
	}
	if _, err := w.Run(ProcSendPayment, storage.Int(3), storage.Int(1), storage.Int(10000)); err == nil {
		t.Fatal("insufficient payment accepted")
	}
}

// TestConcurrentHotAccountsNeverAbortUnderHealing is Table 2's claim:
// even with every worker on the same few accounts, healing never
// restarts Smallbank transactions.
func TestConcurrentHotAccountsNeverAbortUnderHealing(t *testing.T) {
	const (
		workers = 4
		txns    = 400
	)
	e := build(t, 10, core.Options{Protocol: core.Healing, Workers: workers, Interleave: true})
	e.Start()
	defer e.Stop()

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			w := e.Worker(wi)
			for i := 0; i < txns; i++ {
				a := storage.Int(rng.Int63n(3)) // only 3 hot accounts
				amt := storage.Int(1 + rng.Int63n(5))
				var err error
				if i%2 == 0 {
					_, err = w.Run(ProcDepositChecking, a, amt)
				} else {
					_, err = w.Run(ProcBalance, a)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi := 0; wi < workers; wi++ {
		if r := e.Worker(wi).Metrics().Restarts.Load(); r != 0 {
			t.Errorf("worker %d restarted %d times", wi, r)
		}
	}
	// Deposits must all land: initial total + sum of deposits.
	total := TotalAssets(e.Catalog())
	if total <= 10*2000 {
		t.Fatalf("total assets %d: deposits lost", total)
	}
}

// TestMoneyConservedUnderTransfers: with only pure transfers running
// (SendPayment, Amalgamate), total assets are invariant under every
// protocol.
func TestMoneyConservedUnderTransfers(t *testing.T) {
	const (
		workers  = 4
		accounts = 12
		txns     = 300
	)
	for _, p := range []core.Protocol{core.Healing, core.OCC, core.Silo, core.TPL} {
		t.Run(p.String(), func(t *testing.T) {
			e := build(t, accounts, core.Options{Protocol: p, Workers: workers, Interleave: true})
			e.Start()
			defer e.Stop()
			before := TotalAssets(e.Catalog())

			var wg sync.WaitGroup
			for wi := 0; wi < workers; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(wi) * 3))
					zg := zipf.New(accounts, 0.9)
					w := e.Worker(wi)
					for i := 0; i < txns; i++ {
						a := int64(zg.Next(rng.Float64()))
						b := (a + 1 + rng.Int63n(accounts-1)) % accounts
						var err error
						if i%3 == 0 {
							_, err = w.Run(ProcAmalgamate, storage.Int(a), storage.Int(b))
						} else {
							_, err = w.Run(ProcSendPayment, storage.Int(a), storage.Int(b), storage.Int(rng.Int63n(20)))
						}
						if err != nil && !strings.Contains(err.Error(), "transaction aborted") {
							t.Error(err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()
			if after := TotalAssets(e.Catalog()); after != before {
				t.Fatalf("assets %d -> %d: money not conserved", before, after)
			}
		})
	}
}

// TestDeterministicEngine: SendPayment under THEDB-DT, which locks the
// two customers' partition stripes and validates nothing, conserves
// money.
func TestDeterministicEngine(t *testing.T) {
	e := build(t, 8, core.Options{Protocol: core.DT, Workers: 2, Interleave: true})
	e.Start()
	defer e.Stop()
	cat := e.Catalog()
	before := TotalAssets(cat)
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			w := e.Worker(wi)
			for i := 0; i < 300; i++ {
				a := rng.Int63n(8)
				b := (a + 1 + rng.Int63n(7)) % 8
				if _, err := w.Run(ProcSendPayment, storage.Int(a), storage.Int(b), storage.Int(3)); err != nil &&
					!strings.Contains(err.Error(), "transaction aborted") {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	if after := TotalAssets(cat); after != before {
		t.Fatalf("assets %d -> %d under THEDB-DT", before, after)
	}
}

// TestProgramsSharedAcrossWorkers: no Smallbank plan reads an
// argument, so each of the six procedures is compiled once and every
// worker runs the same Program concurrently on a handful of hot
// accounts. The race detector is the judge of the sharing; the counter
// is the judge of "once".
func TestProgramsSharedAcrossWorkers(t *testing.T) {
	const (
		workers = 4
		txns    = 300
	)
	e := build(t, 10, core.Options{Protocol: core.Healing, Workers: workers, Interleave: true})
	e.Start()
	defer e.Stop()
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			w := e.Worker(wi)
			for i := 0; i < txns; i++ {
				a, b := storage.Int(rng.Int63n(4)), storage.Int(4+rng.Int63n(4))
				amt := storage.Int(1 + rng.Int63n(5))
				var err error
				switch i % 6 {
				case 0:
					_, err = w.Run(ProcBalance, a)
				case 1:
					_, err = w.Run(ProcDepositChecking, a, amt)
				case 2:
					_, err = w.Run(ProcTransactSavings, a, amt)
				case 3:
					_, err = w.Run(ProcAmalgamate, a, b)
				case 4:
					_, err = w.Run(ProcWriteCheck, a, amt)
				case 5:
					_, err = w.Run(ProcSendPayment, a, b, amt)
				}
				var ab *proc.AbortError
				if err != nil && !errors.As(err, &ab) {
					t.Errorf("worker %d txn %d: %v", wi, i, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	m := e.Metrics(0)
	if m.Committed+m.Aborted != workers*txns {
		t.Errorf("committed %d + aborted %d, want %d", m.Committed, m.Aborted, workers*txns)
	}
	if want := int64(len(Specs())); m.PlanExpansions != want {
		t.Errorf("PlanExpansions = %d over %d transactions, want one per procedure (%d)", m.PlanExpansions, workers*txns, want)
	}
}
