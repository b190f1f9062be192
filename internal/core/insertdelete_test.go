package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/workload/kv"
)

// kvEngine builds a single ordered table KV(v) engine for the §4.7
// scenarios.
func kvEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	return shardedKVEngine(t, opts, 0)
}

// shardedKVEngine is kvEngine with KV's ordered index sharded at
// shift (0: one shard).
func shardedKVEngine(t testing.TB, opts Options, shift uint) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:       "KV",
		Columns:    []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
		Ordered:    true,
		ShardShift: shift,
	})
	e := NewEngine(cat, opts)
	e.MustRegister(&proc.Spec{
		Name:   "Put",
		Params: []string{"k", "v"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "insert",
				KeyReads: []string{"k"},
				ValReads: []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Insert("KV", storage.Key(e.Int("k")), storage.Tuple{storage.Int(e.Int("v"))})
				},
			})
		},
	})
	e.MustRegister(&proc.Spec{
		Name:   "GetSum",
		Params: []string{"lo", "hi"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "scan",
				KeyReads: []string{"lo", "hi"},
				Writes:   []string{"sum", "count"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					var sum, count int64
					err := ctx.Scan("KV", storage.Key(e.Int("lo")), storage.Key(e.Int("hi")), 0,
						func(_ storage.Key, row storage.Tuple) bool {
							sum += row[0].Int()
							count++
							return true
						})
					if err != nil {
						return err
					}
					e.SetInt("sum", sum)
					e.SetInt("count", count)
					return nil
				},
			})
		},
	})
	e.MustRegister(&proc.Spec{
		Name:   "Del",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "delete",
				KeyReads: []string{"k"},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Delete("KV", storage.Key(ctx.Env().Int("k")))
				},
			})
		},
	})
	e.MustRegister(&proc.Spec{
		Name:   "Get",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "get",
				KeyReads: []string{"k"},
				Writes:   []string{"v", "ok"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("KV", storage.Key(e.Int("k")), nil)
					if err != nil {
						return err
					}
					if ok {
						e.SetVal("v", row[0])
						e.SetInt("ok", 1)
					} else {
						e.SetInt("v", 0)
						e.SetInt("ok", 0)
					}
					return nil
				},
			})
		},
	})
	return e
}

func TestInsertThenReadDeleteLifecycle(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	if _, err := w.Run("Put", storage.Int(5), storage.Int(50)); err != nil {
		t.Fatal(err)
	}
	env, err := w.Run("Get", storage.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("ok") != 1 || env.Int("v") != 50 {
		t.Fatalf("get after insert: ok=%d v=%d", env.Int("ok"), env.Int("v"))
	}
	// Duplicate insert must abort with a duplicate-key error.
	if _, err := w.Run("Put", storage.Int(5), storage.Int(51)); err == nil ||
		!strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := w.Run("Del", storage.Int(5)); err != nil {
		t.Fatal(err)
	}
	env, err = w.Run("Get", storage.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("ok") != 0 {
		t.Fatal("record visible after delete")
	}
	// Re-insert after delete reuses the slot.
	if _, err := w.Run("Put", storage.Int(5), storage.Int(52)); err != nil {
		t.Fatal(err)
	}
	env, _ = w.Run("Get", storage.Int(5))
	if env.Int("v") != 52 {
		t.Fatalf("v = %d after re-insert", env.Int("v"))
	}
}

// TestInsertScenario1 is §4.7.1's first scenario: T2 reads a record
// that T1 inserted but has not yet committed — the dummy is invisible,
// so T2 sees nothing; when T1 commits first, T2's validation heals.
func TestInsertScenario1(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)

	// T1: read phase only (buffered insert, invisible dummy).
	spec, _ := e.Spec("Put")
	env1 := spec.Bind([]storage.Value{storage.Int(7), storage.Int(70)})
	t1 := newTxn(w1, spec.Instantiate(env1), env1, firstRung(w1, false))
	if err := t1.readPhase(); err != nil {
		t.Fatal(err)
	}

	// T2 reads key 7 concurrently: must not see the uncommitted row.
	getSpec, _ := e.Spec("Get")
	env2 := getSpec.Bind([]storage.Value{storage.Int(7)})
	t2 := newTxn(w2, getSpec.Instantiate(env2), env2, firstRung(w2, false))
	if err := t2.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env2.Int("ok") != 0 {
		t.Fatal("uncommitted insert visible to concurrent reader")
	}

	// T1 commits; T2's validation detects the visibility flip and
	// heals the read — the healed query result now sees the row.
	if err := t1.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env2.Int("ok") != 1 || env2.Int("v") != 70 {
		t.Fatalf("healed read: ok=%d v=%d, want the committed insert", env2.Int("ok"), env2.Int("v"))
	}
	if w2.m.Heals.Load() != 1 {
		t.Errorf("heals = %d, want 1", w2.m.Heals.Load())
	}
}

// TestInsertScenario2 is §4.7.1's second scenario: T1 reads a
// non-existent key (creating the dummy), then T2 inserts and commits
// it. T1 committing after must heal.
func TestInsertScenario2(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)

	getSpec, _ := e.Spec("Get")
	env1 := getSpec.Bind([]storage.Value{storage.Int(9)})
	t1 := newTxn(w1, getSpec.Instantiate(env1), env1, firstRung(w1, false))
	if err := t1.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env1.Int("ok") != 0 {
		t.Fatal("non-existent key read as present")
	}

	if _, err := w2.Run("Put", storage.Int(9), storage.Int(90)); err != nil {
		t.Fatal(err)
	}

	if err := t1.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env1.Int("ok") != 1 || env1.Int("v") != 90 {
		t.Fatalf("healed read missed concurrent insert: ok=%d v=%d", env1.Int("ok"), env1.Int("v"))
	}
}

// TestInsertScenario3 is §4.7.1's third scenario: two concurrent
// transactions insert the same key; the slower one must not commit a
// second version.
func TestInsertScenario3(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)

	spec, _ := e.Spec("Put")
	env1 := spec.Bind([]storage.Value{storage.Int(11), storage.Int(1)})
	t1 := newTxn(w1, spec.Instantiate(env1), env1, firstRung(w1, false))
	if err := t1.readPhase(); err != nil {
		t.Fatal(err)
	}
	env2 := spec.Bind([]storage.Value{storage.Int(11), storage.Int(2)})
	t2 := newTxn(w2, spec.Instantiate(env2), env2, firstRung(w2, false))
	if err := t2.readPhase(); err != nil {
		t.Fatal(err)
	}

	if err := t2.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	// T1 must not commit: its insert element's timestamp/visibility
	// changed, which signals a restart; the retry then sees a genuine
	// duplicate.
	err := t1.validateAndCommit()
	if err == nil {
		t.Fatal("second inserter committed over the first")
	}
	t1.finish(false)

	tab, _ := e.Catalog().Table("KV")
	rec, _ := tab.Peek(11)
	if got := rec.Tuple()[0].Int(); got != 2 {
		t.Fatalf("value = %d, want the first committer's 2", got)
	}
}

// TestPhantomHealing is §4.7.2: a range scan's leaf version changes
// when a concurrent insert lands in the scanned range; healing
// re-executes the scan and the aggregate reflects the phantom row.
func TestPhantomHealing(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)
	for k := int64(1); k <= 5; k++ {
		if _, err := w1.Run("Put", storage.Int(k), storage.Int(k*10)); err != nil {
			t.Fatal(err)
		}
	}

	spec, _ := e.Spec("GetSum")
	env := spec.Bind([]storage.Value{storage.Int(1), storage.Int(100)})
	txn := newTxn(w1, spec.Instantiate(env), env, firstRung(w1, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env.Int("sum") != 150 || env.Int("count") != 5 {
		t.Fatalf("initial scan: sum=%d count=%d", env.Int("sum"), env.Int("count"))
	}

	// Concurrent committed insert into the scanned range.
	if _, err := w2.Run("Put", storage.Int(6), storage.Int(60)); err != nil {
		t.Fatal(err)
	}

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env.Int("sum") != 210 || env.Int("count") != 6 {
		t.Fatalf("healed scan: sum=%d count=%d, want 210/6 (phantom healed)", env.Int("sum"), env.Int("count"))
	}
	if w1.m.Heals.Load() == 0 {
		t.Error("no healing recorded for the phantom")
	}
}

// TestPhantomAbortsOCC: the same phantom, through the ordered index
// or a secondary one, must restart a validate-abort protocol instead.
func TestPhantomAbortsOCC(t *testing.T) {
	for _, c := range []struct {
		name         string
		engine       func(testing.TB, Options) *Engine
		scan, insert string
		rows         [][]storage.Value // inserted before the scan
		args, row    []storage.Value   // the scan's, the phantom's
	}{
		{"Scan", kvEngine, "GetSum", "Put",
			[][]storage.Value{{storage.Int(1), storage.Int(1)}, {storage.Int(2), storage.Int(1)}, {storage.Int(3), storage.Int(1)}},
			[]storage.Value{storage.Int(1), storage.Int(100)}, []storage.Value{storage.Int(4), storage.Int(1)}},
		{"ScanSec", peopleEngine, "CountName", "AddPerson", nil,
			[]storage.Value{storage.Str("smith")}, []storage.Value{storage.Int(4), storage.Str("smith")}},
	} {
		for _, p := range []Protocol{OCC, Silo} {
			t.Run(c.name+"/"+p.String(), func(t *testing.T) {
				e := c.engine(t, Options{Protocol: p, Workers: 2})
				w1, w2 := e.Worker(0), e.Worker(1)
				for _, row := range c.rows {
					if _, err := w1.Run(c.insert, row...); err != nil {
						t.Fatal(err)
					}
				}
				spec, _ := e.Spec(c.scan)
				env := spec.Bind(c.args)
				txn := newTxn(w1, spec.Instantiate(env), env, firstRung(w1, false))
				if err := txn.readPhase(); err != nil {
					t.Fatal(err)
				}
				if _, err := w2.Run(c.insert, c.row...); err != nil {
					t.Fatal(err)
				}
				if err := txn.validateAndCommit(); err != errRestart {
					t.Fatalf("validateAndCommit = %v, want errRestart", err)
				}
				txn.finish(false)
			})
		}
	}
}

// TestMissingShardPhantom: a scan over a range of a sharded index whose
// shards do not all exist yet must see a concurrent insert that creates
// one. OCC and Silo restart; Healing heals the row into the count.
func TestMissingShardPhantom(t *testing.T) {
	for _, p := range []Protocol{OCC, Silo, Healing} {
		t.Run(p.String(), func(t *testing.T) {
			e := shardedKVEngine(t, Options{Protocol: p, Workers: 2}, 8) // shards of 256 keys
			w1, w2 := e.Worker(0), e.Worker(1)
			if _, err := w1.Run("Put", storage.Int(1), storage.Int(10)); err != nil {
				t.Fatal(err)
			}
			spec, _ := e.Spec("GetSum")
			env := spec.Bind([]storage.Value{storage.Int(1), storage.Int(1000)})
			txn := newTxn(w1, spec.Instantiate(env), env, firstRung(w1, false))
			if err := txn.readPhase(); err != nil {
				t.Fatal(err)
			}
			if _, err := w2.Run("Put", storage.Int(300), storage.Int(30)); err != nil { // creates shard 1
				t.Fatal(err)
			}
			err := txn.validateAndCommit()
			if p != Healing {
				if err != errRestart {
					t.Fatalf("validateAndCommit = %v, count=%d; want errRestart", err, env.Int("count"))
				}
				txn.finish(false)
				return
			}
			if err != nil || env.Int("count") != 2 || env.Int("sum") != 40 {
				t.Fatalf("validateAndCommit = %v, count=%d sum=%d; want nil, 2, 40", err, env.Int("count"), env.Int("sum"))
			}
		})
	}
}

// TestDeleteDetectedByConcurrentReader: a committed delete bumps the
// record timestamp, so a concurrent reader's validation heals and the
// healed read sees the record as gone.
func TestDeleteDetectedByConcurrentReader(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)
	if _, err := w1.Run("Put", storage.Int(3), storage.Int(30)); err != nil {
		t.Fatal(err)
	}

	getSpec, _ := e.Spec("Get")
	env := getSpec.Bind([]storage.Value{storage.Int(3)})
	txn := newTxn(w1, getSpec.Instantiate(env), env, firstRung(w1, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env.Int("ok") != 1 {
		t.Fatal("read missed existing record")
	}

	if _, err := w2.Run("Del", storage.Int(3)); err != nil {
		t.Fatal(err)
	}

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env.Int("ok") != 0 {
		t.Fatal("healed read still sees the deleted record")
	}
}

// TestGCReclaimsDeletedThroughEngine: after a committed delete and
// transaction completion, the collector unlinks the record.
func TestGCReclaimsDeletedThroughEngine(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	if _, err := w.Run("Put", storage.Int(1), storage.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run("Del", storage.Int(1)); err != nil {
		t.Fatal(err)
	}
	e.GC().Collect()
	tab, _ := e.Catalog().Table("KV")
	if _, ok := tab.Peek(1); ok {
		t.Fatal("deleted record not reclaimed")
	}
	// Reads of missing keys leave retired dummies too.
	if _, err := w.Run("Get", storage.Int(77)); err != nil {
		t.Fatal(err)
	}
	e.GC().Collect()
	if _, ok := tab.Peek(77); ok {
		t.Fatal("read-miss dummy not reclaimed")
	}
}

// TestWritePastRowEndIsRefused: a column index outside the row is
// refused with ErrSchema before the write acquires anything, on every
// protocol. The row keeps its value and no lock is left behind, so a
// second worker's KVPut on the key commits at once.
func TestWritePastRowEndIsRefused(t *testing.T) {
	for _, p := range []Protocol{Healing, OCC, Silo, TPL, Hybrid, OCCNoValidate, SiloNoValidate, DT} {
		t.Run(p.String(), func(t *testing.T) {
			cat := storage.NewCatalog()
			cat.MustCreateTable(kv.Schema())
			tab, _ := cat.Table(kv.Tab)
			tab.Put(5, storage.Tuple{storage.Int(1)}, 0)
			e := NewEngine(cat, Options{Protocol: p, Workers: 2})
			for _, s := range kv.Specs() {
				e.MustRegister(s)
			}
			e.Start()
			defer func() { _ = e.Stop() }()
			for _, col := range []int{3, -1} {
				err := e.Worker(0).Transact(func(ctx proc.OpCtx) error {
					return ctx.Write(kv.Tab, 5, []int{col}, []storage.Value{storage.Int(9)})
				})
				if !errors.Is(err, ErrSchema) {
					t.Fatalf("write to column %d: err = %v, want ErrSchema", col, err)
				}
			}
			if rec, _ := tab.Peek(5); rec.Tuple()[0].Int() != 1 {
				t.Fatalf("row 5 = %v after refused writes, want [1]", rec.Tuple())
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.Worker(1).Run(kv.ProcPut, storage.Int(5), storage.Int(7))
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("KVPut after the refused writes: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("KVPut on key 5 did not commit within 1s: a refused write left a lock held")
			}
		})
	}
}

// TestWriteOfWrongKindIsRefused: a write or an insert of a non-NULL
// value whose kind is not the column's is refused with ErrSchema
// before anything is acquired, on every protocol. The row keeps its
// value, the insert leaves no row, and no lock is left behind, so a
// second worker's KVPut on the key commits at once.
func TestWriteOfWrongKindIsRefused(t *testing.T) {
	for _, p := range []Protocol{Healing, OCC, Silo, TPL, Hybrid, OCCNoValidate, SiloNoValidate, DT} {
		t.Run(p.String(), func(t *testing.T) {
			cat := storage.NewCatalog()
			cat.MustCreateTable(kv.Schema())
			tab, _ := cat.Table(kv.Tab)
			tab.Put(5, storage.Tuple{storage.Int(1)}, 0)
			e := NewEngine(cat, Options{Protocol: p, Workers: 2})
			for _, s := range kv.Specs() {
				e.MustRegister(s)
			}
			e.Start()
			defer func() { _ = e.Stop() }()
			for name, body := range map[string]func(proc.OpCtx) error{
				"write": func(ctx proc.OpCtx) error {
					return ctx.Write(kv.Tab, 5, []int{0}, []storage.Value{storage.Str("x")})
				},
				"insert": func(ctx proc.OpCtx) error {
					return ctx.Insert(kv.Tab, 6, storage.Tuple{storage.Str("x")})
				},
			} {
				if err := e.Worker(0).Transact(body); !errors.Is(err, ErrSchema) {
					t.Fatalf("%s of a string into the int column: err = %v, want ErrSchema", name, err)
				}
			}
			if rec, _ := tab.Peek(5); rec.Tuple()[0].Int() != 1 {
				t.Fatalf("row 5 = %v after refused writes, want [1]", rec.Tuple())
			}
			if rec, ok := tab.Peek(6); ok && rec.Visible() {
				t.Fatalf("row 6 = %v after a refused insert, want none", rec.Tuple())
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.Worker(1).Run(kv.ProcPut, storage.Int(5), storage.Int(7))
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("KVPut after the refused writes: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("KVPut on key 5 did not commit within 1s: a refused write left a lock held")
			}
		})
	}
}

// TestInsertReplayRechecksRow: healing replays an insert whose row is
// built from a read, and the replayed row has another width or a
// value of another kind than the schema's. The replay is refused with
// ErrSchema, like a first execution, instead of reaching commit, whose
// SetTuple would panic with the write set locked. No row is left and
// no lock is held, so a second worker's KVPut on the key commits.
func TestInsertReplayRechecksRow(t *testing.T) {
	for name, bad := range map[string]storage.Tuple{
		"width": {storage.Int(1), storage.Int(2)},
		"kind":  {storage.Str("x")},
	} {
		t.Run(name, func(t *testing.T) {
			cat := storage.NewCatalog()
			cat.MustCreateTable(kv.Schema())
			tab, _ := cat.Table(kv.Tab)
			tab.Put(5, storage.Tuple{storage.Int(1)}, 0)
			e := NewEngine(cat, Options{Protocol: Healing, Workers: 2})
			for _, s := range kv.Specs() {
				e.MustRegister(s)
			}
			bumped := false
			e.MustRegister(&proc.Spec{Name: "CopyInsert", Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{Name: "read", Writes: []string{"v"}, Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read(kv.Tab, 5, nil)
					ctx.Env().SetVal("v", row[0])
					return err
				}})
				b.Op(proc.Op{Name: "insert", ValReads: []string{"v"}, Body: func(ctx proc.OpCtx) error {
					if !bumped { // a concurrent commit between the read and validation
						bumped = true
						externalCommit(t, e, kv.Tab, 5, 0, storage.Int(2), storage.MakeTS(1, 1))
					}
					row := storage.Tuple{storage.Int(1)}
					if ctx.Env().Int("v") != 1 {
						row = bad
					}
					return ctx.Insert(kv.Tab, 6, row)
				}})
			}})
			e.Start()
			defer func() { _ = e.Stop() }()
			if _, err := e.Worker(0).Run("CopyInsert"); !errors.Is(err, ErrSchema) {
				t.Fatalf("healed insert of a bad row: err = %v, want ErrSchema", err)
			}
			if rec, ok := tab.Peek(6); ok && rec.Visible() {
				t.Fatalf("row 6 = %v after a refused insert, want none", rec.Tuple())
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.Worker(1).Run(kv.ProcPut, storage.Int(6), storage.Int(7))
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("KVPut after the refused insert: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("KVPut on key 6 did not commit within 1s: the refused insert left a lock held")
			}
		})
	}
}
