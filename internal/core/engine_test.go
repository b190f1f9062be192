package core

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"thedb/internal/proc"
	"thedb/internal/statecheck"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

func TestNextCommitTSProperties(t *testing.T) {
	check := func(worker uint8, workersRaw uint8, last, seen uint64, epoch uint32) bool {
		workers := int(workersRaw%16) + 1
		wid := int(worker) % workers
		last &= storage.MaxTimestamp
		seen &= storage.MaxTimestamp
		epoch &= (1 << 20) - 1
		ts := nextCommitTS(wid, workers, last, seen, epoch)
		// (a) exceeds every record timestamp seen.
		if ts <= seen {
			return false
		}
		// (b) exceeds the worker's previous timestamp.
		if ts <= last {
			return false
		}
		// (c) carries at least the current epoch.
		if e, _ := storage.SplitTS(ts); e < epoch {
			return false
		}
		// (d) sequence half in the worker's residue class.
		_, s := storage.SplitTS(ts)
		return int(s)%workers == wid
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitTSDistinctAcrossWorkers(t *testing.T) {
	// Two workers never produce the same timestamp, whatever they
	// observe: their residue classes are disjoint.
	a := nextCommitTS(0, 3, 0, 100, 1)
	b := nextCommitTS(1, 3, 0, 100, 1)
	c := nextCommitTS(2, 3, 0, 100, 1)
	if a == b || b == c || a == c {
		t.Fatalf("collision: %d %d %d", a, b, c)
	}
}

func TestEpochManager(t *testing.T) {
	m := NewEpochManager(time.Millisecond)
	if m.Current() != 1 {
		t.Fatalf("initial epoch = %d", m.Current())
	}
	if m.Advance() != 2 {
		t.Fatal("manual advance failed")
	}
	fired := make(chan uint32, 64)
	m.Start(func(e uint32) {
		select {
		case fired <- e:
		default:
		}
	})
	e1 := <-fired
	e2 := <-fired
	if e2 <= e1 {
		t.Fatalf("epochs not increasing: %d then %d", e1, e2)
	}
	m.Stop()
	m.Stop() // idempotent
}

// TestAdhocFallsBackToOCC: ad-hoc transactions restart on conflicts
// even under the healing engine (§4.8).
func TestAdhocFallsBackToOCC(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, true))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "BALANCE", amy, 0, storage.Int(2500), storage.MakeTS(1, 1))
	if err := txn.validateAndCommit(); err != errRestart {
		t.Fatalf("adhoc validation = %v, want errRestart", err)
	}
	txn.finish(false)

	// The Run path converges by restarting, and the engine never
	// heals ad-hoc transactions.
	if _, err := w.RunAdhoc("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
		t.Fatal(err)
	}
	if w.m.Heals.Load() != 0 {
		t.Errorf("ad-hoc transaction healed (%d heals)", w.m.Heals.Load())
	}
}

// TestAblationNoAccessCache: with the access cache disabled (Table 4)
// the healing engine must degrade to abort-and-restart yet stay
// correct.
func TestAblationNoAccessCache(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, NoAccessCache: true})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "BALANCE", amy, 0, storage.Int(2500), storage.MakeTS(1, 1))
	if err := txn.validateAndCommit(); err != errRestart {
		t.Fatalf("without access cache: %v, want errRestart", err)
	}
	txn.finish(false)
	if _, err := w.Run("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
		t.Fatal(err)
	}
	if got := balanceOf(t, e, amy); got != 2480 {
		t.Errorf("balance = %d, want 2480", got)
	}
	if w.m.Heals.Load() != 0 {
		t.Errorf("healed without an access cache (%d)", w.m.Heals.Load())
	}
}

// TestAblationNoReadCopies: without read copies, false invalidations
// are not dismissed — the transaction heals instead (correct, just
// more work).
func TestAblationNoReadCopies(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name: "WIDE",
		Columns: []storage.ColumnDef{
			{Name: "a", Kind: storage.KindInt},
			{Name: "b", Kind: storage.KindInt},
		},
	})
	tab, _ := cat.Table("WIDE")
	tab.Put(1, storage.Tuple{storage.Int(10), storage.Int(20)}, 0)
	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1, NoReadCopies: true})
	e.MustRegister(&proc.Spec{
		Name:   "ReadA",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "readA",
				KeyReads: []string{"k"},
				Writes:   []string{"a"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("WIDE", storage.Key(ctx.Env().Int("k")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("a", row[0])
					return nil
				},
			})
		},
	})
	w := e.Worker(0)
	spec, _ := e.Spec("ReadA")
	env := spec.Bind([]storage.Value{storage.Int(1)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "WIDE", 1, 1, storage.Int(99), storage.MakeTS(1, 1))
	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if w.m.FalseInval.Load() != 0 {
		t.Error("false invalidation dismissed without read copies")
	}
	if w.m.Heals.Load() != 1 {
		t.Errorf("heals = %d, want 1 (cannot prove the read unaffected)", w.m.Heals.Load())
	}
}

// TestRecoveryMatchesLiveState is the end-to-end durability and
// serializability check: run contended transfers with value logging,
// then rebuild a fresh database from the logs alone (Thomas write
// rule, any stream order) and require the checkpoint images to be
// identical. If the engine ever committed a non-serializable
// interleaving, the per-record last-writer state could not be
// reproduced from timestamped logs.
func TestRecoveryMatchesLiveState(t *testing.T) {
	const workers = 4
	var logs [8]bytes.Buffer
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
	for k := storage.Key(1); k <= 8; k++ {
		client.Put(k, storage.Tuple{storage.Int(int64(k%8) + 1)}, 0)
		balance.Put(k, storage.Tuple{storage.Int(1000)}, 0)
		bonus.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}
	logger := wal.NewLogger(wal.ValueLogging, workers, func(i int) io.Writer { return &logs[i] })
	e := NewEngine(cat, Options{Protocol: Healing, Workers: workers, Logger: logger})
	e.MustRegister(transferSpec())
	e.Start()

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			for i := 0; i < 200; i++ {
				src := storage.Int(int64((wi+i)%8) + 1)
				if _, err := w.Run("Transfer", src, storage.Int(int64(i%37))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	e.Stop() // flushes the logs

	live := statecheck.VisibleRows(cat)

	// Rebuild from the initial state plus logs, streams in a
	// scrambled order.
	cat2 := storage.NewCatalog()
	for _, name := range []string{"CLIENT", "BALANCE", "BONUS"} {
		cat2.MustCreateTable(storage.Schema{
			Name:    name,
			Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
		})
	}
	c2, _ := cat2.Table("CLIENT")
	b2, _ := cat2.Table("BALANCE")
	bo2, _ := cat2.Table("BONUS")
	for k := storage.Key(1); k <= 8; k++ {
		c2.Put(k, storage.Tuple{storage.Int(int64(k%8) + 1)}, 0)
		b2.Put(k, storage.Tuple{storage.Int(1000)}, 0)
		bo2.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}
	var streams []io.Reader
	for _, i := range []int{3, 1, 2, 0} {
		streams = append(streams, bytes.NewReader(logs[i].Bytes()))
	}
	if _, err := wal.RecoverStreams(cat2, streams, wal.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if recovered := statecheck.VisibleRows(cat2); recovered != live {
		t.Fatalf("recovered state differs from live state\n got: %s\nwant: %s", recovered, live)
	}
}

// TestDeadlockPreventionAbort constructs the §4.2.2 situation
// directly: during a healing membership update the new element sorts
// below the validation frontier and its lock is held by someone else,
// so the transaction must abort (restart) instead of waiting.
func TestDeadlockPreventionAbort(t *testing.T) {
	cat := storage.NewCatalog()
	// VAL records are created first (low global lock order), the PTR
	// record afterwards (high), so a healed pointer chase inserts a
	// membership element *below* the already-passed frontier.
	cat.MustCreateTable(storage.Schema{
		Name:    "VAL",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	cat.MustCreateTable(storage.Schema{
		Name:    "PTR",
		Columns: []storage.ColumnDef{{Name: "p", Kind: storage.KindInt}},
	})
	val, _ := cat.Table("VAL")
	ptr, _ := cat.Table("PTR")
	for k := storage.Key(1); k <= 3; k++ {
		val.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}
	ptr.Put(1, storage.Tuple{storage.Int(2)}, 0)

	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1, Order: AddrOrder, MaxLockAttempts: 1})
	e.MustRegister(&proc.Spec{
		Name:   "Chase",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "readPtr",
				KeyReads: []string{"k"},
				Writes:   []string{"target"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("PTR", storage.Key(ctx.Env().Int("k")), nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("target", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "writeVal",
				KeyReads: []string{"target"},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("VAL", storage.Key(ctx.Env().Int("target")), []int{0},
						[]storage.Value{storage.Int(1)})
				},
			})
		},
	})
	w := e.Worker(0)

	spec, _ := e.Spec("Chase")
	env := spec.Bind([]storage.Value{storage.Int(1)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	// RW set: VAL[2] (low addr, write-only), PTR[1] (high addr).
	// Repoint to VAL[1] and pre-lock it: the healed membership
	// insert sorts below the frontier and must fail no-wait.
	v1, _ := val.Peek(1)
	if !v1.TryLock() {
		t.Fatal("could not pre-lock VAL[1]")
	}
	defer v1.Unlock()
	externalCommit(t, e, "PTR", 1, 0, storage.Int(1), storage.MakeTS(1, 1))

	err := txn.validateAndCommit()
	if err != errRestart {
		t.Fatalf("healing with contended membership lock = %v, want errRestart (no-wait)", err)
	}
	txn.finish(false)

	// With the contended lock released, the retry path succeeds and
	// the healed target receives the write.
	v1.Unlock()
	if _, err := w.Run("Chase", storage.Int(1)); err != nil {
		t.Fatal(err)
	}
	v1.Lock() // re-acquire so the deferred unlock stays balanced
	if got := v1.Tuple()[0].Int(); got != 1 {
		t.Fatalf("VAL[1] = %d, want 1", got)
	}
	v2, _ := val.Peek(2)
	if got := v2.Tuple()[0].Int(); got != 0 {
		t.Fatalf("VAL[2] = %d, want 0 (membership update removed it)", got)
	}
}

// TestCommitTimestampsUniqueUnderConcurrency runs contended traffic
// with value logging and checks the global commit-timestamp
// properties the recovery path depends on: every logged transaction
// timestamp is globally unique, and each worker's stream is strictly
// increasing.
func TestCommitTimestampsUniqueUnderConcurrency(t *testing.T) {
	const workers = 4
	var logs [workers]bytes.Buffer
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "C",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("C")
	for k := storage.Key(0); k < 4; k++ {
		tab.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}
	logger := wal.NewLogger(wal.CommandLogging, workers, func(i int) io.Writer { return &logs[i] })
	e := NewEngine(cat, Options{Protocol: Healing, Workers: workers, Logger: logger, Interleave: true})
	e.MustRegister(&proc.Spec{
		Name:   "Incr",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "rmw",
				KeyReads: []string{"k"},
				Body: func(ctx proc.OpCtx) error {
					env := ctx.Env()
					row, _, err := ctx.Read("C", storage.Key(env.Int("k")), nil)
					if err != nil {
						return err
					}
					return ctx.Write("C", storage.Key(env.Int("k")), []int{0},
						[]storage.Value{storage.Int(row[0].Int() + 1)})
				},
			})
		},
	})
	e.Start()
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			for i := 0; i < 250; i++ {
				if _, err := w.Run("Incr", storage.Int(int64(i%4))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	e.Stop()

	seen := make(map[uint64]int)
	for wi := range logs {
		res, err := wal.RecoverStreams(storage.NewCatalog(), []io.Reader{bytes.NewReader(logs[wi].Bytes())}, wal.RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var prev uint64
		for _, c := range res.Commands {
			if c.TS <= prev {
				t.Fatalf("worker %d: non-increasing commit ts %d after %d", wi, c.TS, prev)
			}
			prev = c.TS
			if other, dup := seen[c.TS]; dup {
				t.Fatalf("commit ts %d used by workers %d and %d", c.TS, other, wi)
			}
			seen[c.TS] = wi
		}
	}
	if len(seen) != workers*250 {
		t.Fatalf("logged %d commits, want %d", len(seen), workers*250)
	}
}
