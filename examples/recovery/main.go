// Recovery demonstrates THEDB's durability path (paper Appendix C),
// the way a server uses it: log into a WAL directory, publish an online
// checkpoint mid-run, shut down, then boot a fresh database from the
// directory — newest checkpoint image plus the WAL tail above its
// watermark — and verify the recovered rows are identical, commit
// timestamps included. It repeats the exercise with command logging,
// where boot re-executes the logged procedure calls instead of
// applying after-images, and finishes with a salvage demo: a log torn
// mid-frame by a crash is refused by a strict boot and recovered to its
// epoch-consistent committed prefix by a salvage boot.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"thedb"
	"thedb/internal/wal"
)

const accounts = 16

// workers is the session count; the WAL set keeps one stream per worker.
const workers = 2

// open opens dir as a WAL directory and builds a database (schema and
// procedure, no rows) logging into it.
func open(dir string, logMode thedb.LogMode) (*thedb.DB, *thedb.WALSet) {
	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		log.Fatal(err)
	}
	db, err := thedb.Open(thedb.Config{
		Protocol: thedb.Healing,
		Workers:  workers,
		WALSet:   fs,
		LogMode:  logMode,
	})
	if err != nil {
		log.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "ACCOUNTS",
		Columns: []thedb.ColumnDef{{Name: "balance", Kind: thedb.KindInt}},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "Deposit",
		Params: []string{"acct", "amount"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "rmw",
				KeyReads: []string{"acct"},
				ValReads: []string{"amount"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("ACCOUNTS", thedb.Key(e.Int("acct")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return thedb.UserAbort("no such account")
					}
					return ctx.Write("ACCOUNTS", thedb.Key(e.Int("acct")), []int{0},
						[]thedb.Value{thedb.Int(row[0].Int() + e.Int("amount"))})
				},
			})
		},
	})
	return db, fs
}

func populate(db *thedb.DB) {
	tab, _ := db.Table("ACCOUNTS")
	for k := thedb.Key(0); k < accounts; k++ {
		tab.Put(k, thedb.Tuple{thedb.Int(1000)}, 0)
	}
}

// runWorkload spreads deposits over both sessions so both log streams
// carry entries.
func runWorkload(db *thedb.DB, n int) {
	for i := 0; i < n; i++ {
		s := db.Session(i % workers)
		if _, err := s.Run("Deposit", thedb.Int(int64(i%accounts)), thedb.Int(int64(i%7+1))); err != nil {
			log.Fatal(err)
		}
	}
}

// shutdown closes the database (sealing and syncing every stream) and
// then the WAL files.
func shutdown(db *thedb.DB, fs *thedb.WALSet) {
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		log.Fatal(err)
	}
}

func demo(mode thedb.LogMode) {
	fmt.Printf("--- %s logging ---\n", mode)
	dir, err := os.MkdirTemp("", "thedb-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, fs := open(dir, mode)
	populate(db)
	db.Start()

	// Phase 1: work, then an online checkpoint (value logging only: a
	// fuzzy image plus command replay would double-execute procedures).
	// The round also rotates the log onto a fresh generation.
	runWorkload(db, 300)
	if mode == thedb.ValueLogging {
		// Let phase 1's epoch become durable: the image's watermark is
		// the durable epoch, and boot skips the groups at or below it.
		time.Sleep(30 * time.Millisecond)
		if _, err := db.Checkpoint(dir); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 2: more work, then a clean shutdown (see the salvage demo
	// for the crash case).
	runWorkload(db, 200)
	shutdown(db, fs)

	// Restart: a fresh database over the same directory. Boot restores
	// the image, replays only the commit groups above its watermark and
	// seeds the epoch past everything recovered.
	db2, fs2 := open(dir, mode)
	if mode == thedb.CommandLogging {
		// Command replay rebuilds everything from the initial state.
		populate(db2)
	}
	report, err := db2.Boot(thedb.RecoverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	shutdown(db2, fs2)

	// Command replay re-executes the procedures, assigning fresh commit
	// timestamps, so compare data only; value replay must reproduce the
	// timestamps too.
	if !sameAccounts(db, db2, mode == thedb.ValueLogging) {
		log.Fatalf("RECOVERY MISMATCH (%s logging)", mode)
	}
	fmt.Printf("recovered state identical (%d image rows, %d groups replayed, %d skipped below the watermark, %d commands re-executed)\n",
		report.CheckpointRows, report.GroupsApplied, report.GroupsSkipped, report.CommandsReplayed)
}

// salvageDemo crashes mid-write: one stream loses its tail mid-frame.
// A strict boot refuses (and says where); a salvage boot restores the
// epoch-consistent committed prefix.
func salvageDemo() {
	fmt.Println("--- crash salvage ---")
	dir, err := os.MkdirTemp("", "thedb-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, fs := open(dir, thedb.ValueLogging)
	populate(db)
	db.Start()
	// Pace the workload across several epochs so the streams carry
	// intermediate seals — that is what lets salvage keep a prefix.
	for batch := 0; batch < 20; batch++ {
		runWorkload(db, 100)
		time.Sleep(2 * time.Millisecond)
	}
	shutdown(db, fs)
	crashed := balances(db)

	// The crash: worker 0's log loses roughly the last 40% of its bytes,
	// cutting a frame in half. The cut is placed by walking the frames:
	// a truncation that happened to fall on a frame boundary would leave
	// a well-formed, merely shorter log that strict boot rightly accepts.
	gens, err := filepath.Glob(filepath.Join(dir, "worker-0.gen-*.wal"))
	if err != nil || len(gens) != 1 {
		log.Fatalf("worker 0 generations = %v (%v), want one", gens, err)
	}
	f, err := os.Open(gens[0])
	if err != nil {
		log.Fatal(err)
	}
	frames, damage, err := wal.InspectStream(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || damage != nil || len(frames) == 0 {
		log.Fatalf("worker 0 log before the crash: %d frames, damage %v, err %v", len(frames), damage, err)
	}
	target := frames[len(frames)-1].End * 3 / 5
	cut := frames[sort.Search(len(frames), func(i int) bool { return frames[i].End > target })]
	if err := os.Truncate(gens[0], (cut.Offset+cut.End)/2); err != nil {
		log.Fatal(err)
	}

	strictDB, strictFS := open(dir, thedb.ValueLogging)
	populate(strictDB)
	if _, err := strictDB.Boot(thedb.RecoverOptions{}); err != nil {
		fmt.Printf("strict boot refuses the damaged log:\n  %v\n", err)
	} else {
		log.Fatal("strict boot accepted a torn log")
	}
	shutdown(strictDB, strictFS)

	salvageDB, salvageFS := open(dir, thedb.ValueLogging)
	populate(salvageDB)
	report, err := salvageDB.Boot(thedb.RecoverOptions{Salvage: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("salvage: durable epoch %d, %d groups applied, %d dropped past the cut, %d torn\n",
		report.DurableEpoch, report.GroupsApplied, report.GroupsDropped, report.TornTails)
	for _, d := range report.Damage {
		fmt.Printf("  damage: %s\n", d)
	}
	shutdown(salvageDB, salvageFS)

	// Deposits only add, so every salvaged balance lies between the
	// initial 1000 and its pre-crash value, and a restored prefix moved
	// at least one account.
	moved := false
	for k, b := range balances(salvageDB) {
		if b < 1000 || b > crashed[k] {
			log.Fatalf("salvage: account %d holds %d, outside [1000, %d]", k, b, crashed[k])
		}
		moved = moved || b != 1000
	}
	if report.GroupsApplied == 0 || !moved {
		log.Fatalf("salvage restored nothing: %d groups applied, moved=%v", report.GroupsApplied, moved)
	}
}

// balances reads every account's balance.
func balances(db *thedb.DB) []int64 {
	tab, _ := db.Table("ACCOUNTS")
	out := make([]int64, accounts)
	for k := range out {
		r, _ := tab.Peek(thedb.Key(k))
		out[k] = r.Tuple()[0].Int()
	}
	return out
}

// sameAccounts compares every account's balance and, with withTS, its
// commit timestamp.
func sameAccounts(a, b *thedb.DB, withTS bool) bool {
	ta, _ := a.Table("ACCOUNTS")
	tb, _ := b.Table("ACCOUNTS")
	for k := thedb.Key(0); k < accounts; k++ {
		ra, _ := ta.Peek(k)
		rb, ok := tb.Peek(k)
		if !ok || ra.Tuple()[0].Int() != rb.Tuple()[0].Int() {
			return false
		}
		if withTS && ra.Timestamp() != rb.Timestamp() {
			return false
		}
	}
	return true
}

func main() {
	demo(thedb.ValueLogging)
	demo(thedb.CommandLogging)
	salvageDemo()
}
