package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"thedb/internal/core"
	"thedb/internal/det"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/ycsb"
)

// TestDeclaredVariableHonesty runs the TPC-C, YCSB and Smallbank mixes
// and requires zero ErrMalformed: every operation body touches only the
// environment variables it declared in KeyReads/ValReads/Writes, which
// every engine enforces on every run (proc.Op.Run). The dependency
// analyzer — and with it the healing engine's correctness — rests on
// these declarations, so a refusal here is a soundness bug in a
// workload, not a matter of style. TPC-C runs on two contended healing
// workers, so re-executed operations are held to it too, and on
// THEDB-DT.
func TestDeclaredVariableHonesty(t *testing.T) {
	honest := func(t *testing.T, name string, err error) bool {
		t.Helper()
		if err != nil && !isUserAbort(err) {
			t.Errorf("%s: %v (malformed: %v)", name, err, errors.Is(err, proc.ErrMalformed))
			return false
		}
		return true
	}

	t.Run("tpcc", func(t *testing.T) {
		cfg := testConfig(1)
		e := core.NewEngine(buildCatalog(t, cfg, 0), core.Options{Protocol: core.Healing, Workers: 2, Interleave: true})
		for _, s := range Specs() {
			e.MustRegister(s)
		}
		mix := StandardMix()
		mix.RemotePct = 20 // exercise the remote branches too
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := NewGen(cfg, mix, w)
				for i := 0; i < 300; i++ {
					req := gen.Next()
					if _, err := e.Worker(w).Run(req.Proc, req.Args...); !honest(t, req.Proc, err) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})

	t.Run("tpcc-dt", func(t *testing.T) {
		cfg := testConfig(2)
		e := det.NewEngine(buildCatalog(t, cfg, 2), 2, 1)
		for _, p := range DetProcs(2) {
			e.MustRegister(p)
		}
		mix := StandardMix()
		mix.RemotePct = 20
		gen := NewGen(cfg, mix, 0)
		for i := 0; i < 300; i++ {
			req := gen.Next()
			if _, err := e.Worker(0).Run(req.Proc, req.Args...); !honest(t, req.Proc, err) {
				return
			}
		}
	})

	t.Run("ycsb", func(t *testing.T) {
		const records = 1000
		cat := storage.NewCatalog()
		cat.MustCreateTable(ycsb.Schema())
		if err := ycsb.Populate(cat, records, 8); err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(cat, core.Options{Protocol: core.Healing, Workers: 1})
		for _, s := range ycsb.Specs() {
			e.MustRegister(s)
		}
		w := e.Worker(0)
		for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadE, ycsb.WorkloadF, ycsb.WorkloadSnap} {
			gen := ycsb.NewGen(mix, records, 0.9, 0)
			for i := 0; i < 200; i++ {
				name, args := gen.Next()
				var err error
				if ycsb.IsReadOnly(name) {
					_, err = w.RunSnapshot(name, args...)
				} else {
					_, err = w.Run(name, args...)
				}
				if !honest(t, name, err) {
					return
				}
			}
		}
	})

	t.Run("smallbank", func(t *testing.T) {
		const accounts = 100
		cat := storage.NewCatalog()
		for _, s := range smallbank.Schemas(0) {
			cat.MustCreateTable(s)
		}
		if err := smallbank.Populate(cat, accounts, 1000, 1000); err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(cat, core.Options{Protocol: core.Healing, Workers: 1})
		for _, s := range smallbank.Specs() {
			e.MustRegister(s)
		}
		w := e.Worker(0)
		rng := rand.New(rand.NewSource(7))
		acct := func() storage.Value { return storage.Int(int64(rng.Intn(accounts))) }
		amount := func() storage.Value { return storage.Int(int64(1 + rng.Intn(50))) }
		for i := 0; i < 600; i++ {
			var name string
			var args []storage.Value
			switch rng.Intn(6) {
			case 0:
				name, args = smallbank.ProcBalance, []storage.Value{acct()}
			case 1:
				name, args = smallbank.ProcDepositChecking, []storage.Value{acct(), amount()}
			case 2:
				name, args = smallbank.ProcTransactSavings, []storage.Value{acct(), amount()}
			case 3:
				name, args = smallbank.ProcAmalgamate, []storage.Value{acct(), acct()}
			case 4:
				name, args = smallbank.ProcWriteCheck, []storage.Value{acct(), amount()}
			default:
				name, args = smallbank.ProcSendPayment, []storage.Value{acct(), acct(), amount()}
			}
			if _, err := w.Run(name, args...); !honest(t, name, err) {
				return
			}
		}
	})
}
