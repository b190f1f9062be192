package thedb_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"thedb"
	"thedb/internal/statecheck"
)

// counterDB builds a tiny database with an Increment procedure.
func counterDB(t testing.TB, cfg thedb.Config) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "C",
		Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
	})
	tab, _ := db.Table("C")
	for k := thedb.Key(0); k < 8; k++ {
		tab.Put(k, thedb.Tuple{thedb.Int(0)}, 0)
	}
	spec := &thedb.Spec{
		Name:   "Incr",
		Params: []string{"k"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "rmw",
				KeyReads: []string{"k"},
				Writes:   []string{"v"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("C", thedb.Key(e.Int("k")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return thedb.UserAbort("missing counter")
					}
					e.SetInt("v", row[0].Int()+1)
					return ctx.Write("C", thedb.Key(e.Int("k")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("v"))})
				},
			})
		},
	}
	db.MustRegister(spec)
	return db
}

func TestEveryProtocolEndToEnd(t *testing.T) {
	protos := []thedb.Protocol{
		thedb.Healing, thedb.OCC, thedb.Silo, thedb.TPL, thedb.Hybrid,
	}
	for _, p := range protos {
		t.Run(p.String(), func(t *testing.T) {
			db := counterDB(t, thedb.Config{Protocol: p, Workers: 4})
			db.Start()
			defer db.Close()

			var wg sync.WaitGroup
			for wi := 0; wi < 4; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					s := db.Session(wi)
					for i := 0; i < 250; i++ {
						if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
							t.Error(err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()

			tab, _ := db.Table("C")
			var total int64
			for k := thedb.Key(0); k < 8; k++ {
				rec, _ := tab.Peek(k)
				total += rec.Tuple()[0].Int()
			}
			if total != 1000 {
				t.Fatalf("total = %d, want 1000", total)
			}
			m := db.Metrics(0)
			if m.Committed != 1000 {
				t.Fatalf("committed = %d", m.Committed)
			}
		})
	}
}

func TestSessionRunReturnsOutputs(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	env, err := db.Session(0).Run("Incr", thedb.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("v") != 1 {
		t.Fatalf("output v = %d", env.Int("v"))
	}
}

func TestRunAdhoc(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	if _, err := db.Session(0).RunAdhoc("Incr", thedb.Int(0)); err != nil {
		t.Fatal(err)
	}
	if db.Metrics(0).Committed != 1 {
		t.Fatal("adhoc txn not committed")
	}
}

func TestUnknownProcedure(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	if _, err := db.Session(0).Run("DoesNotExist"); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

func TestDuplicateTable(t *testing.T) {
	db, _ := thedb.Open(thedb.Config{})
	db.MustCreateTable(thedb.Schema{Name: "X", Columns: []thedb.ColumnDef{{Name: "a", Kind: thedb.KindInt}}})
	if err := db.CreateTable(thedb.Schema{Name: "X"}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// walCounterDB is counterDB logging into a one-worker WAL set in dir.
func walCounterDB(t *testing.T, dir string, mode thedb.LogMode) *thedb.DB {
	t.Helper()
	fs, err := thedb.OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1, WALSet: fs, LogMode: mode})
}

// walStreams reopens the WAL directory dir and returns its generations
// as one recovery stream per worker, the tail a restart replays
// through RecoverFromWith. Cleanup closes the streams and the set.
func walStreams(t *testing.T, dir string) []io.Reader {
	t.Helper()
	fs, err := thedb.OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	streams, closeStreams, err := fs.BootStreams()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := errors.Join(closeStreams(), fs.Close()); err != nil {
			t.Error(err)
		}
	})
	return streams
}

func TestCheckpointAndRecoverThroughAPI(t *testing.T) {
	dir := t.TempDir()
	db := walCounterDB(t, dir, thedb.ValueLogging)
	db.Start()
	s := db.Session(0)
	for i := 0; i < 50; i++ {
		if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil { // flush log
		t.Fatal(err)
	}

	live := statecheck.VisibleRows(db.Catalog())

	// Fresh instance: initial data + log replay must reproduce state.
	db2 := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	if _, err := db2.RecoverFromWith(nil, walStreams(t, dir), thedb.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := statecheck.VisibleRows(db2.Catalog()); got != live {
		t.Fatalf("recovered state differs\n got: %s\nwant: %s", got, live)
	}

	// Checkpoint restore path, over a truly empty catalog (counterDB
	// pre-populates): once from the directory, once handing the
	// published image to RecoverFromWith as a stream.
	info, err := db.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	empty := func() *thedb.DB {
		e, _ := thedb.Open(thedb.Config{Protocol: thedb.Healing})
		e.MustCreateTable(thedb.Schema{
			Name:    "C",
			Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
		})
		return e
	}
	db3 := empty()
	if got, err := db3.RestoreCheckpoint(dir); err != nil || got == nil || got.Rows != info.Rows {
		t.Fatalf("RestoreCheckpoint = (%+v, %v), want %d rows", got, err, info.Rows)
	}
	if got := statecheck.VisibleRows(db3.Catalog()); got != live {
		t.Fatal("checkpoint round trip differs")
	}
	image, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	db4 := empty()
	if _, err := db4.RecoverFromWith(bytes.NewReader(image), nil, thedb.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := statecheck.VisibleRows(db4.Catalog()); got != live {
		t.Fatal("image stream round trip differs")
	}
	if _, err := empty().RecoverFromWith(walStreams(t, dir)[0], nil, thedb.RecoverOptions{}); err == nil {
		t.Fatal("a log stream was accepted as a checkpoint image")
	}
}

func TestProtocolNames(t *testing.T) {
	want := map[thedb.Protocol]string{
		thedb.Healing: "THEDB",
		thedb.OCC:     "THEDB-OCC",
		thedb.Silo:    "THEDB-SILO",
		thedb.TPL:     "THEDB-2PL",
		thedb.Hybrid:  "THEDB-HYBRID",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
}

func TestCommandLogReplayThroughAPI(t *testing.T) {
	dir := t.TempDir()
	db := walCounterDB(t, dir, thedb.CommandLogging)
	db.Start()
	s := db.Session(0)
	for i := 0; i < 60; i++ {
		if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh instance from the initial state: replay must rebuild the
	// counters exactly.
	db2 := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	if _, err := db2.RecoverFromWith(nil, walStreams(t, dir), thedb.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ta, _ := db.Table("C")
	tb, _ := db2.Table("C")
	for k := thedb.Key(0); k < 8; k++ {
		ra, _ := ta.Peek(k)
		rb, _ := tb.Peek(k)
		if ra.Tuple()[0].Int() != rb.Tuple()[0].Int() {
			t.Fatalf("counter %d: live=%d replayed=%d", k, ra.Tuple()[0].Int(), rb.Tuple()[0].Int())
		}
	}
}

func TestReplayCommandsOrdersByTimestamp(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	db.Start()
	defer db.Close()
	// Deliberately out-of-order command slice; replay must sort.
	cmds := []thedb.Command{
		{TS: 30, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
		{TS: 10, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
		{TS: 20, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
	}
	if err := db.ReplayCommands(cmds); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("C")
	rec, _ := tab.Peek(0)
	if got := rec.Tuple()[0].Int(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Unknown procedure surfaces an error.
	if err := db.ReplayCommands([]thedb.Command{{TS: 1, Proc: "Nope"}}); err == nil {
		t.Fatal("replay of unknown procedure accepted")
	}
}

func TestTransactAdhoc(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 2})
	db.Start()
	defer db.Close()

	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			s := db.Session(wi)
			for i := 0; i < 200; i++ {
				err := s.Transact(func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("C", 0, nil)
					if err != nil {
						return err
					}
					return ctx.Write("C", 0, []int{0},
						[]thedb.Value{thedb.Int(row[0].Int() + 1)})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	tab, _ := db.Table("C")
	rec, _ := tab.Peek(0)
	if got := rec.Tuple()[0].Int(); got != 400 {
		t.Fatalf("counter = %d, want 400 (ad-hoc OCC lost updates)", got)
	}

	// User aborts surface unchanged.
	if err := db.Session(0).Transact(func(thedb.OpCtx) error {
		return thedb.UserAbort("nope")
	}); err == nil {
		t.Fatal("user abort swallowed")
	}
}

// TestSessionSnapshotRead pins Session.SnapshotRead, the anonymous
// snapshot transaction: once the epoch has advanced past a commit, a
// snapshot returns the committed row, and a write inside one fails
// with ErrReadOnlyTxn.
func TestSessionSnapshotRead(t *testing.T) {
	db := counterDB(t, thedb.Config{Workers: 1, EpochInterval: time.Millisecond})
	db.Start()
	defer db.Close()
	s := db.Session(0)
	if _, err := s.Run("Incr", thedb.Int(3)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var got int64
		err := s.SnapshotRead(func(ctx thedb.OpCtx) error {
			row, ok, err := ctx.Read("C", 3, nil)
			if err != nil || !ok {
				return errors.Join(err, errors.New("counter 3 missing"))
			}
			got = row[0].Int()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got == 1 {
			break
		}
		if got != 0 || time.Now().After(deadline) {
			t.Fatalf("snapshot read counter 3 = %d, want the committed 1", got)
		}
		time.Sleep(time.Millisecond)
	}

	err := s.SnapshotRead(func(ctx thedb.OpCtx) error {
		return ctx.Write("C", 3, []int{0}, []thedb.Value{thedb.Int(9)})
	})
	if !errors.Is(err, thedb.ErrReadOnlyTxn) {
		t.Fatalf("write inside SnapshotRead = %v, want ErrReadOnlyTxn", err)
	}
}

// TestSessionEnvLifetime pins the contract Session.Run states: the
// *Env it returns is the session's own, valid until the session's next
// call. Another session's calls leave it alone; the next call on the
// same session refills that very Env.
func TestSessionEnvLifetime(t *testing.T) {
	db, err := thedb.Open(thedb.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.MustRegister(&thedb.Spec{
		Name:   "Echo",
		Params: []string{"x"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "echo", ValReads: []string{"x"}, Writes: []string{"y"}, Body: func(ctx thedb.OpCtx) error {
				ctx.Env().SetInt("y", ctx.Env().Int("x"))
				return nil
			}})
		},
	})
	db.Start()
	defer db.Close()
	s0, s1 := db.Session(0), db.Session(1)

	env, err := s0.Run("Echo", thedb.Int(1))
	if err != nil || env.Int("y") != 1 || env.Int("x") != 1 {
		t.Fatalf("Run: %v", err)
	}
	if _, err := s1.Run("Echo", thedb.Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.RunSnapshot("Echo", thedb.Int(3)); err != nil {
		t.Fatal(err)
	}
	if env.Int("y") != 1 {
		t.Fatalf("another session's calls changed this one's result: y = %d", env.Int("y"))
	}
	next, err := s0.Run("Echo", thedb.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if next != env || env.Int("y") != 4 {
		t.Fatalf("the session's next Run did not refill its Env: same %v, y = %d", next == env, env.Int("y"))
	}
}
