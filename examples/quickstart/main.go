// Quickstart: open a THEDB instance, define a table and a stored
// procedure, and run concurrent transactions under the
// transaction-healing protocol.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"thedb"
)

func main() {
	db, err := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "COUNTERS",
		Columns: []thedb.ColumnDef{{Name: "value", Kind: thedb.KindInt}},
	})

	// Populate outside of transactions.
	counters, _ := db.Table("COUNTERS")
	for k := thedb.Key(0); k < 4; k++ {
		counters.Put(k, thedb.Tuple{thedb.Int(0)}, 0)
	}

	// Increment(key): a read-modify-write procedure. Operations
	// declare their variable flow — KeyReads feed accessing keys,
	// ValReads feed values, Writes name outputs — which is what the
	// healing engine's dependency analysis consumes.
	db.MustRegister(&thedb.Spec{
		Name:   "Increment",
		Params: []string{"key"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "read",
				KeyReads: []string{"key"},
				Writes:   []string{"cur"},
				Body: func(ctx thedb.OpCtx) error {
					row, ok, err := ctx.Read("COUNTERS", thedb.Key(ctx.Env().Int("key")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return thedb.UserAbort("no such counter")
					}
					ctx.Env().SetVal("cur", row[0])
					return nil
				},
			})
			b.Op(thedb.Op{
				Name:     "write",
				KeyReads: []string{"key"},
				ValReads: []string{"cur"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("COUNTERS", thedb.Key(e.Int("key")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("cur") + 1)})
				},
			})
		},
	})

	db.Start()
	defer func() {
		if err := db.Close(); err != nil {
			log.Fatalf("closing database: %v", err)
		}
	}()

	// Four sessions hammer the same four counters: every transaction
	// conflicts with someone, yet healing commits them all without a
	// single restart (the procedure is independent, §4.6).
	var wg sync.WaitGroup
	const perWorker = 1000
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			s := db.Session(wi)
			for i := 0; i < perWorker; i++ {
				if _, err := s.Run("Increment", thedb.Int(int64(i%4))); err != nil {
					log.Fatal(err)
				}
			}
		}(wi)
	}
	wg.Wait()

	total := int64(0)
	for k := thedb.Key(0); k < 4; k++ {
		rec, _ := counters.Peek(k)
		v := rec.Tuple()[0].Int()
		fmt.Printf("counter %d = %d\n", k, v)
		total += v
	}
	fmt.Printf("total = %d (want %d)\n", total, 4*perWorker)
	if total != 4*perWorker {
		log.Fatal("increments were lost")
	}

	m := db.Metrics(0)
	fmt.Printf("committed=%d restarts=%d heals=%d\n", m.Committed, m.Restarts, m.Heals)
}
