// Banktransfer reproduces the paper's §2 running example end to end:
// a transfer procedure whose destination account comes from a CLIENT
// lookup, giving the engine both value dependencies (balance math)
// and a key dependency (the destination key). It prints the program
// dependency graph (the paper's Figure 3) and then demonstrates both
// healing modes by racing transfers against client-pointer updates.
//
//	go run ./examples/banktransfer
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"thedb"
)

const accounts = 16

// transferSpec is the Figure 1a procedure.
func transferSpec() *thedb.Spec {
	return &thedb.Spec{
		Name:   "Transfer",
		Params: []string{"src", "amount"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{ // Line 2: dstId <- read(Client, srcId)
				Name:     "readClient",
				KeyReads: []string{"src"},
				Writes:   []string{"dst"},
				Body: func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("CLIENT", thedb.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("dst", row[0])
					return nil
				},
			})
			b.Op(thedb.Op{ // Line 3: srcVal <- read(Balance, srcId)
				Name:     "readSrcBal",
				KeyReads: []string{"src"},
				Writes:   []string{"srcVal"},
				Body: func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("BALANCE", thedb.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("srcVal", row[0])
					return nil
				},
			})
			b.Op(thedb.Op{ // Line 4: dstVal <- read(Balance, dstId)
				Name:     "readDstBal",
				KeyReads: []string{"dst"},
				Writes:   []string{"dstVal"},
				Body: func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("BALANCE", thedb.Key(ctx.Env().Int("dst")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("dstVal", row[0])
					return nil
				},
			})
			b.Op(thedb.Op{ // Line 6: write(Balance, srcId, srcVal-amount)
				Name:     "writeSrcBal",
				KeyReads: []string{"src"},
				ValReads: []string{"srcVal", "amount"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BALANCE", thedb.Key(e.Int("src")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("srcVal") - e.Int("amount"))})
				},
			})
			b.Op(thedb.Op{ // Line 7: write(Balance, dstId, dstVal+amount)
				Name:     "writeDstBal",
				KeyReads: []string{"dst"},
				ValReads: []string{"dstVal", "amount"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BALANCE", thedb.Key(e.Int("dst")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("dstVal") + e.Int("amount"))})
				},
			})
			b.Op(thedb.Op{ // Line 8: bonus <- read(Bonus, srcId)
				Name:     "readBonus",
				KeyReads: []string{"src"},
				Writes:   []string{"bonus"},
				Body: func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("BONUS", thedb.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("bonus", row[0])
					return nil
				},
			})
			b.Op(thedb.Op{ // Line 9: write(Bonus, srcId, bonus+1)
				Name:     "writeBonus",
				KeyReads: []string{"src"},
				ValReads: []string{"bonus"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BONUS", thedb.Key(e.Int("src")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("bonus") + 1)})
				},
			})
		},
	}
}

// setClientSpec repoints an account's transfer destination,
// triggering key-dependent healing in concurrent transfers.
func setClientSpec() *thedb.Spec {
	return &thedb.Spec{
		Name:   "SetClient",
		Params: []string{"src", "dst"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "setClient",
				KeyReads: []string{"src"},
				ValReads: []string{"dst"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("CLIENT", thedb.Key(e.Int("src")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("dst"))})
				},
			})
		},
	}
}

func main() {
	db, err := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"CLIENT", "BALANCE", "BONUS"} {
		db.MustCreateTable(thedb.Schema{
			Name:    name,
			Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
		})
	}
	client, _ := db.Table("CLIENT")
	balance, _ := db.Table("BALANCE")
	bonus, _ := db.Table("BONUS")
	const initBalance = 10000
	for k := thedb.Key(0); k < accounts; k++ {
		client.Put(k, thedb.Tuple{thedb.Int(int64(k+1) % accounts)}, 0)
		balance.Put(k, thedb.Tuple{thedb.Int(initBalance)}, 0)
		bonus.Put(k, thedb.Tuple{thedb.Int(0)}, 0)
	}

	spec := transferSpec()
	db.MustRegister(spec)
	db.MustRegister(setClientSpec())
	db.Start()
	defer func() {
		if err := db.Close(); err != nil {
			log.Fatalf("closing database: %v", err)
		}
	}()

	// Print the program dependency graph (Figure 3): K = key
	// dependency, V = value dependency.
	fmt.Println("program dependency graph:")
	fmt.Print(spec.Instantiate(spec.Bind([]thedb.Value{thedb.Int(0), thedb.Int(1)})).Graph())

	// Race transfers against client-pointer updates: conflicting
	// balance updates exercise value-dependent healing, pointer flips
	// force key-dependent healing with read/write-set membership
	// updates.
	var wg sync.WaitGroup
	const perWorker = 2000
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			s := db.Session(wi)
			for i := 0; i < perWorker; i++ {
				src := thedb.Int(rng.Int63n(accounts))
				if wi == 3 && i%5 == 0 {
					// Repoint to a *different* account: a self-transfer
					// (src == dst) would not conserve money (the two
					// balance writes fold into a single +amount).
					dst := (src.Int() + 1 + rng.Int63n(accounts-1)) % accounts
					if _, err := s.Run("SetClient", src, thedb.Int(dst)); err != nil {
						log.Fatal(err)
					}
					continue
				}
				if _, err := s.Run("Transfer", src, thedb.Int(rng.Int63n(50))); err != nil {
					log.Fatal(err)
				}
			}
		}(wi)
	}
	wg.Wait()

	var total int64
	for k := thedb.Key(0); k < accounts; k++ {
		rec, _ := balance.Peek(k)
		total += rec.Tuple()[0].Int()
	}
	fmt.Printf("\ntotal balance = %d (want %d: healing preserved conservation)\n",
		total, int64(accounts)*initBalance)
	if total != int64(accounts)*initBalance {
		log.Fatal("transfers did not conserve money")
	}
	m := db.Metrics(0)
	fmt.Printf("committed=%d heals=%d healed-ops=%d restarts=%d false-invalidations=%d\n",
		m.Committed, m.Heals, m.HealedOps, m.Restarts, m.FalseInval)
}
