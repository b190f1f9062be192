// Smallbank example: short banking transactions over Zipf-skewed
// accounts. At high skew (theta=0.9) almost every transaction touches
// the same few hot accounts; under healing none of them ever aborts
// (they are independent transactions, §4.6), while OCC's abort rate
// climbs steeply — run both protocols to compare.
//
//	go run ./examples/smallbank -protocol healing -theta 0.9
//	go run ./examples/smallbank -protocol occ -theta 0.9
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"thedb"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/zipf"
)

var protocols = map[string]thedb.Protocol{
	"healing": thedb.Healing,
	"occ":     thedb.OCC,
	"silo":    thedb.Silo,
	"2pl":     thedb.TPL,
}

func main() {
	protoName := flag.String("protocol", "healing", "healing | occ | silo | 2pl")
	theta := flag.Float64("theta", 0.9, "Zipf skew in [0,1): higher = hotter keys")
	accounts := flag.Int("accounts", 1000, "accounts per table")
	workers := flag.Int("workers", 4, "concurrent sessions")
	txns := flag.Int("txns", 5000, "transactions per session")
	flag.Parse()

	proto, ok := protocols[strings.ToLower(*protoName)]
	if !ok {
		log.Fatalf("unknown protocol %q", *protoName)
	}

	db, err := thedb.Open(thedb.Config{Protocol: proto, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range smallbank.Schemas(0) {
		db.MustCreateTable(s)
	}
	const initBal = 10000
	if err := smallbank.Populate(db.Catalog(), *accounts, initBal, initBal); err != nil {
		log.Fatal(err)
	}
	for _, s := range smallbank.Specs() {
		db.MustRegister(s)
	}
	db.Start()
	defer func() {
		if err := db.Close(); err != nil {
			log.Fatalf("closing database: %v", err)
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < *workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi) + 1))
			zg := zipf.New(uint64(*accounts), *theta)
			s := db.Session(wi)
			acct := func() thedb.Value { return thedb.Int(int64(zg.Next(rng.Float64()))) }
			for i := 0; i < *txns; i++ {
				var err error
				amt := thedb.Int(int64(1 + rng.Intn(50)))
				switch i % 6 {
				case 0:
					_, err = s.Run(smallbank.ProcBalance, acct())
				case 1:
					_, err = s.Run(smallbank.ProcDepositChecking, acct(), amt)
				case 2:
					_, err = s.Run(smallbank.ProcTransactSavings, acct(), amt)
				case 3:
					a, b := acct(), acct()
					if !a.Equal(b) {
						_, err = s.Run(smallbank.ProcAmalgamate, a, b)
					}
				case 4:
					_, err = s.Run(smallbank.ProcWriteCheck, acct(), amt)
				default:
					a, b := acct(), acct()
					if !a.Equal(b) {
						_, err = s.Run(smallbank.ProcSendPayment, a, b, amt)
					}
				}
				// Overdraft aborts are part of the workload.
				if err != nil && !strings.Contains(err.Error(), "transaction aborted:") {
					log.Fatal(err)
				}
			}
		}(wi)
	}
	wg.Wait()
	wall := time.Since(start)

	m := db.Metrics(wall)
	fmt.Printf("protocol=%s theta=%.1f accounts=%d\n", proto, *theta, *accounts)
	fmt.Printf("throughput: %.0f tps over %v\n", m.TPS(), wall.Round(time.Millisecond))
	fmt.Printf("committed=%d restarts=%d (abort rate %.3f) heals=%d\n",
		m.Committed, m.Restarts, m.AbortRate(), m.Heals)
	fmt.Printf("p95 latency: %.1f us\n", m.Percentile(95))
}
