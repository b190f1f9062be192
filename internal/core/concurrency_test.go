package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestConcurrentTransfersConserveTotal hammers a small, contended
// account set from several goroutines under every serializable
// protocol and checks the fundamental invariant: transfers move money
// but never create or destroy it.
func TestConcurrentTransfersConserveTotal(t *testing.T) {
	const (
		accounts = 8
		workers  = 4
		txnsPer  = 300
		initial  = 1000
	)
	for _, p := range []Protocol{Healing, OCC, Silo, TPL, Hybrid, DT} {
		t.Run(p.String(), func(t *testing.T) {
			cat := storage.NewCatalog()
			for _, name := range []string{"CLIENT", "BALANCE", "BONUS"} {
				cat.MustCreateTable(storage.Schema{
					Name:    name,
					Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
				})
			}
			client, _ := cat.Table("CLIENT")
			balance, _ := cat.Table("BALANCE")
			bonus, _ := cat.Table("BONUS")
			for k := storage.Key(1); k <= accounts; k++ {
				client.Put(k, storage.Tuple{storage.Int(int64(k%accounts) + 1)}, 0)
				balance.Put(k, storage.Tuple{storage.Int(initial)}, 0)
				bonus.Put(k, storage.Tuple{storage.Int(0)}, 0)
			}
			e := NewEngine(cat, Options{Protocol: p, Workers: workers})
			e.MustRegister(transferSpec())
			e.Start()
			defer e.Stop()

			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for wi := 0; wi < workers; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(wi) + 1))
					w := e.Worker(wi)
					for i := 0; i < txnsPer; i++ {
						src := storage.Int(rng.Int63n(accounts) + 1)
						amt := storage.Int(rng.Int63n(50))
						if _, err := w.Run("Transfer", src, amt); err != nil {
							errCh <- fmt.Errorf("worker %d txn %d: %w", wi, i, err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			var total int64
			for k := storage.Key(1); k <= accounts; k++ {
				rec, _ := balance.Peek(k)
				total += rec.Tuple()[0].Int()
			}
			if total != accounts*initial {
				t.Errorf("total balance = %d, want %d (money created or destroyed!)", total, accounts*initial)
			}
			var committed int64
			for wi := 0; wi < workers; wi++ {
				committed += e.Worker(wi).m.Committed.Load()
			}
			if committed != workers*txnsPer {
				t.Errorf("committed = %d, want %d", committed, workers*txnsPer)
			}
			// Bonus increments count committed transfers exactly once
			// each — healed transactions must not double-apply.
			var bonusTotal int64
			for k := storage.Key(1); k <= accounts; k++ {
				rec, _ := bonus.Peek(k)
				bonusTotal += rec.Tuple()[0].Int()
			}
			if bonusTotal != int64(workers*txnsPer) {
				t.Errorf("bonus total = %d, want %d", bonusTotal, workers*txnsPer)
			}
		})
	}
}

// TestHealingNeverRestartsIndependent checks §4.6: a procedure with
// no key dependencies (independent transaction) can never abort under
// healing, no matter the contention.
func TestHealingNeverRestartsIndependent(t *testing.T) {
	const (
		workers = 4
		txnsPer = 400
	)
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "COUNTER",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("COUNTER")
	tab.Put(1, storage.Tuple{storage.Int(0)}, 0)

	spec := &proc.Spec{
		Name:   "Incr",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "read",
				KeyReads: []string{"k"},
				Writes:   []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("COUNTER", storage.Key(ctx.Env().Int("k")), nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("v", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "write",
				KeyReads: []string{"k"},
				ValReads: []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("COUNTER", storage.Key(e.Int("k")), []int{0},
						[]storage.Value{storage.Int(e.Int("v") + 1)})
				},
			})
		},
	}
	if !spec.Instantiate(spec.Bind([]storage.Value{storage.Int(1)})).Independent {
		t.Fatal("Incr must be classified independent")
	}

	e := NewEngine(cat, Options{Protocol: Healing, Workers: workers})
	e.MustRegister(spec)
	e.Start()
	defer e.Stop()

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			for i := 0; i < txnsPer; i++ {
				if _, err := w.Run("Incr", storage.Int(1)); err != nil {
					t.Errorf("worker %d: %v", wi, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()

	rec, _ := tab.Peek(1)
	if got := rec.Tuple()[0].Int(); got != workers*txnsPer {
		t.Errorf("counter = %d, want %d (lost update!)", got, workers*txnsPer)
	}
	for wi := 0; wi < workers; wi++ {
		if r := e.Worker(wi).m.Restarts.Load(); r != 0 {
			t.Errorf("worker %d restarted %d times; independent healing transactions must never restart", wi, r)
		}
	}
}
