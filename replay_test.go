package thedb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"thedb"
	"thedb/internal/storage"
	"thedb/internal/workload/kv"
)

// shiftDB builds a database whose Shift procedure makes replay order
// observable: v = v*10 + d appends a digit, so the final value spells
// out the exact order commands were applied in.
func shiftDB(t *testing.T) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "S",
		Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
	})
	tab, _ := db.Table("S")
	tab.Put(0, thedb.Tuple{thedb.Int(0)}, 0)
	db.MustRegister(&thedb.Spec{
		Name:   "Shift",
		Params: []string{"d"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "shift",
				KeyReads: []string{"d"},
				Writes:   []string{"v"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, _, err := ctx.Read("S", 0, nil)
					if err != nil {
						return err
					}
					e.SetInt("v", row[0].Int()*10+e.Int("d"))
					return ctx.Write("S", 0, []int{0}, []thedb.Value{thedb.Int(e.Int("v"))})
				},
			})
		},
	})
	return db
}

func shiftValue(t *testing.T, db *thedb.DB) int64 {
	t.Helper()
	tab, _ := db.Table("S")
	rec, _ := tab.Peek(0)
	return rec.Tuple()[0].Int()
}

func TestReplayCommandsEqualTimestampsKeepInputOrder(t *testing.T) {
	db := shiftDB(t)
	db.Start()
	defer db.Close()
	// Three commands share timestamp 10 (streams from different log
	// generations can collide); the sort must be stable, so they
	// replay in input order after the TS-5 command.
	cmds := []thedb.Command{
		{TS: 10, Proc: "Shift", Args: []thedb.Value{thedb.Int(1)}},
		{TS: 10, Proc: "Shift", Args: []thedb.Value{thedb.Int(2)}},
		{TS: 5, Proc: "Shift", Args: []thedb.Value{thedb.Int(9)}},
		{TS: 10, Proc: "Shift", Args: []thedb.Value{thedb.Int(3)}},
	}
	if err := db.ReplayCommands(cmds); err != nil {
		t.Fatal(err)
	}
	if got := shiftValue(t, db); got != 9123 {
		t.Fatalf("replayed value = %d, want 9123 (TS order 9, then 1,2,3 in input order)", got)
	}
}

func TestReplayCommandsStopsAtFirstFailure(t *testing.T) {
	db := shiftDB(t)
	db.Start()
	defer db.Close()
	cmds := []thedb.Command{
		{TS: 10, Proc: "Shift", Args: []thedb.Value{thedb.Int(1)}},
		{TS: 20, Proc: "NoSuchProc"},
		{TS: 30, Proc: "Shift", Args: []thedb.Value{thedb.Int(2)}},
	}
	err := db.ReplayCommands(cmds)
	if err == nil {
		t.Fatal("replay swallowed a failing command")
	}
	// Documented contract: replay stops at the first failure; earlier
	// commands remain applied, later ones are never run.
	if got := shiftValue(t, db); got != 1 {
		t.Fatalf("value = %d, want 1 (only the pre-failure command applied)", got)
	}
}

// TestReplayIsDeterministic checks that command-log recovery (Appendix
// C) re-executes procedures deterministically: a command-logged KV
// workload runs on two workers, the directory is copied twice, and
// each copy boots into a fresh database. Both replays must hold the
// live database's rows exactly. Every transaction (KVPut, KVInc on a
// handful of keys) writes every record it reads, so commit-timestamp
// order is a serial order of the history.
func TestReplayIsDeterministic(t *testing.T) {
	const workers, txns, keys = 2, 2000, 8
	dir := t.TempDir()
	live, set := kvLife(t, dir, workers)
	live.Start()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := live.Session(w)
			<-start
			for i := 0; i < txns; i++ {
				k, v := thedb.Int(int64((i*7+w*3)%keys)), thedb.Int(int64(i*10+w))
				proc := kv.ProcPut
				if (i+w)%3 == 0 {
					proc = kv.ProcInc
				}
				if _, err := s.Run(proc, k, v); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := tableDigests(live)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		db, _ := kvLife(t, copyDir(t, dir), workers)
		if _, err := db.Boot(thedb.RecoverOptions{}); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		got := tableDigests(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for tab, rows := range want {
			if got[tab] != rows {
				t.Errorf("replay %d: table %s diverges from the live database:\n got %s\nwant %s", i, tab, got[tab], rows)
			}
		}
	}
}

// kvLife opens dir as a command-logged WAL set of workers workers and
// a database over it holding internal/workload/kv's table and
// procedures.
func kvLife(t *testing.T, dir string, workers int) (*thedb.DB, *thedb.WALSet) {
	t.Helper()
	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	db, err := thedb.Open(thedb.Config{
		Workers: workers, WALSet: fs, LogMode: thedb.CommandLogging, EpochInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(kv.Schema())
	for _, s := range kv.Specs() {
		db.MustRegister(s)
	}
	return db, fs
}

// copyDir copies the files of the flat directory src into a fresh
// temporary directory and returns its path.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// tableDigests renders each table's visible rows as sorted key=tuple
// pairs, ignoring commit timestamps: a replay stamps its own.
func tableDigests(db *thedb.DB) map[string]string {
	out := map[string]string{}
	for _, tab := range db.Catalog().Tables() {
		var rows []string
		tab.ForEach(func(k thedb.Key, r *storage.Record) bool {
			if _, tup, visible := r.StableSnapshot(); visible {
				rows = append(rows, fmt.Sprintf("%d=%v", k, tup))
			}
			return true
		})
		sort.Strings(rows)
		out[tab.Schema().Name] = strings.Join(rows, " ")
	}
	return out
}
