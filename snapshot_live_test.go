package thedb_test

// Live acceptance tests for MVCC snapshot reads (DESIGN.md
// §4.6), run under the race detector: long snapshot scans ride
// alongside hot-key writers and must observe an epoch-consistent
// image (a conserved account-sum oracle), commit with zero
// validation, and never push the writers into aborts.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/server"
	"thedb/internal/wire"
)

const (
	snapLiveAccounts = 64
	snapLiveBalance  = 100 // per account; the conserved sum is 6400
)

// transferDB builds an ordered ACCT table where every committed state
// conserves the total balance: Transfer moves one unit between two
// accounts, so any snapshot that mixes pre- and post-images of a
// transfer breaks the sum.
func transferDB(t testing.TB, cfg thedb.Config) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "ACCT",
		Columns: []thedb.ColumnDef{{Name: "bal", Kind: thedb.KindInt}},
		Ordered: true,
	})
	tab, _ := db.Table("ACCT")
	for k := thedb.Key(0); k < snapLiveAccounts; k++ {
		tab.Put(k, thedb.Tuple{thedb.Int(snapLiveBalance)}, 0)
	}
	db.MustRegister(&thedb.Spec{
		Name:   "Transfer",
		Params: []string{"from", "to"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "read",
				KeyReads: []string{"from", "to"},
				Writes:   []string{"vf", "vt"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					rf, _, err := ctx.Read("ACCT", thedb.Key(e.Int("from")), nil)
					if err != nil {
						return err
					}
					rt, _, err := ctx.Read("ACCT", thedb.Key(e.Int("to")), nil)
					if err != nil {
						return err
					}
					e.SetInt("vf", rf[0].Int()-1)
					e.SetInt("vt", rt[0].Int()+1)
					return nil
				},
			})
			b.Op(thedb.Op{
				Name:     "write",
				KeyReads: []string{"from", "to"},
				ValReads: []string{"vf", "vt"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					if err := ctx.Write("ACCT", thedb.Key(e.Int("from")),
						[]int{0}, []thedb.Value{thedb.Int(e.Int("vf"))}); err != nil {
						return err
					}
					return ctx.Write("ACCT", thedb.Key(e.Int("to")),
						[]int{0}, []thedb.Value{thedb.Int(e.Int("vt"))})
				},
			})
		},
	})
	// Two full-table sum scans: a fast one and a deliberately slow one
	// that yields the scheduler every few rows, stretching a single scan
	// across thousands of writer commits — a torn (non-snapshot) read
	// would then mix pre- and post-transfer balances.
	for _, spec := range []struct {
		name string
		slow bool
	}{{"SumAll", false}, {"SumAllSlow", true}} {
		slow := spec.slow
		db.MustRegister(&thedb.Spec{
			Name:   spec.name,
			Params: nil,
			Plan: func(b *thedb.Builder, _ *thedb.Env) {
				b.Op(thedb.Op{
					Name:   "scan",
					Writes: []string{"sum", "rows"},
					Body: func(ctx thedb.OpCtx) error {
						e := ctx.Env()
						var sum, rows int64
						err := ctx.Scan("ACCT", 0, ^thedb.Key(0), 0,
							func(_ thedb.Key, row thedb.Tuple) bool {
								sum += row[0].Int()
								rows++
								if slow && rows%8 == 0 {
									runtime.Gosched()
								}
								return true
							})
						if err != nil {
							return err
						}
						e.SetInt("sum", sum)
						e.SetInt("rows", rows)
						return nil
					},
				})
			},
		})
	}
	return db
}

// TestSnapshotScanUnderWriteChurn is the satellite-3 acceptance test:
// three writers transfer between two hot accounts (plus a random cold
// pair) while a snapshot reader scans the whole table in a loop. Every
// scan must see the conserved sum, every snapshot commit is
// validation-free by construction, and the writers — healing OCC,
// value-dependent writes — must finish with zero permanent aborts.
func TestSnapshotScanUnderWriteChurn(t *testing.T) {
	const (
		writers = 3
		rounds  = 1500
	)
	db := transferDB(t, thedb.Config{
		Protocol:      thedb.Healing,
		Workers:       writers + 1,
		EpochInterval: time.Millisecond, // roll epochs fast so chains actually grow
	})
	db.Start()
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	var wgWriters sync.WaitGroup
	stopScans := make(chan struct{})
	for w := 1; w <= writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			s := db.Session(w)
			for i := 0; i < rounds; i++ {
				// Two hot accounts carry most transfers; every fourth
				// round spreads to a per-worker cold pair.
				from, to := thedb.Key(0), thedb.Key(1)
				if i%4 == 3 {
					from = thedb.Key(2 + (w*7+i)%(snapLiveAccounts-2))
					to = thedb.Key(2 + (w*13+i*5)%(snapLiveAccounts-2))
				}
				if from == to {
					continue
				}
				if _, err := s.Run("Transfer", thedb.Int(int64(from)), thedb.Int(int64(to))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	scanErr := make(chan error, 1)
	scanDone := make(chan struct{})
	var scans, slowScans int64
	go func() {
		defer close(scanDone)
		s := db.Session(0)
		for {
			select {
			case <-stopScans:
				return
			default:
			}
			// Mostly fast scans for sample volume; every eighth scan is
			// the yield-widened slow one spanning many writer commits.
			proc := "SumAll"
			if scans%8 == 7 {
				proc = "SumAllSlow"
			}
			env, err := s.RunSnapshot(proc)
			if err != nil {
				scanErr <- err
				return
			}
			scans++
			if proc == "SumAllSlow" {
				slowScans++
			}
			if sum, rows := env.Int("sum"), env.Int("rows"); sum != snapLiveAccounts*snapLiveBalance || rows != snapLiveAccounts {
				scanErr <- errors.New("snapshot scan saw a torn state")
				return
			}
		}
	}()

	// Writers run to completion while the scanner spins; a scan failure
	// must fail the test promptly instead of hanging the join.
	writersDone := make(chan struct{})
	go func() { wgWriters.Wait(); close(writersDone) }()
	select {
	case <-writersDone:
	case err := <-scanErr:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("timed out waiting for writers")
	}
	close(stopScans)
	<-scanDone
	select {
	case err := <-scanErr:
		t.Fatal(err)
	default:
	}
	if scans == 0 {
		t.Fatal("scanner never completed a snapshot")
	}

	m := db.LiveMetrics()
	if m.SnapshotReads < scans {
		t.Fatalf("SnapshotReads = %d, want >= %d", m.SnapshotReads, scans)
	}
	if m.Aborted != 0 {
		t.Fatalf("writers permanently aborted %d transactions; snapshot scans must not invalidate them", m.Aborted)
	}
	if m.VersionsInstalled == 0 {
		t.Fatal("no versions installed despite epoch-crossing churn")
	}
	t.Logf("scans %d (%d slow), committed %d, heals %d, versions installed %d, reclaimed %d",
		scans, slowScans, m.Committed, m.Heals, m.VersionsInstalled, m.MVCCVersionsReclaimed)
}

// TestCallSnapshotOverLoopback exercises the read-only wire path end
// to end: a CallSnapshot is dispatched to Session.RunSnapshot (zero
// validation, dedup window skipped), a write attempted through it
// fails with the read-only error rather than committing, and a
// secondary-index scan comes back refused the same way.
func TestCallSnapshotOverLoopback(t *testing.T) {
	db := transferDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 2})
	db.MustCreateTable(thedb.Schema{
		Name:    "TAG",
		Columns: []thedb.ColumnDef{{Name: "tag", Kind: thedb.KindString}},
		Secondaries: []thedb.SecondaryDef{{Name: "by_tag", Key: func(_ thedb.Key, t thedb.Tuple) string {
			return t[0].Str()
		}}},
	})
	db.MustRegister(&thedb.Spec{
		Name: "TagScan",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "scan", Body: func(ctx thedb.OpCtx) error {
				return ctx.ScanSec("TAG", "by_tag", "", "\xff", 0, func(thedb.Key, thedb.Tuple) bool { return true })
			}})
		},
	})
	db.Start()
	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	cl, err := client.Dial(l.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.CallSnapshot(ctx, "SumAll")
	if err != nil {
		t.Fatal(err)
	}
	if sum := res.Val("sum").Int(); sum != snapLiveAccounts*snapLiveBalance {
		t.Fatalf("snapshot sum over loopback = %d, want %d", sum, snapLiveAccounts*snapLiveBalance)
	}
	if rows := res.Val("rows").Int(); rows != snapLiveAccounts {
		t.Fatalf("snapshot rows over loopback = %d, want %d", rows, snapLiveAccounts)
	}

	// A writing procedure on the read-only path must be rejected by the
	// snapshot OpCtx, not silently committed.
	var readOnly, secScan *wire.RemoteError
	if _, err := cl.CallSnapshot(ctx, "Transfer", thedb.Int(0), thedb.Int(1)); !errors.As(err, &readOnly) ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("CallSnapshot of a writing proc: err = %v, want read-only rejection", err)
	}
	_, err = cl.CallSnapshot(ctx, "TagScan")
	if !errors.As(err, &secScan) || secScan.Code != readOnly.Code || secScan.Retryable() ||
		!strings.Contains(err.Error(), thedb.ErrSnapshotSecondaryScan.Error()) {
		t.Fatalf("CallSnapshot of a secondary scan: err = %v, want the refusal under the read-only code (%v)", err, readOnly)
	}

	if got := db.LiveMetrics().SnapshotReads; got != 1 {
		t.Fatalf("server-side SnapshotReads = %d, want 1 (the failed write attempt must not count)", got)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
