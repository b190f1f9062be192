package core

import (
	"testing"

	"thedb/internal/fault"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestScanSeesOwnBufferedEffects: a scan inside a transaction
// observes the transaction's own uncommitted inserts, updates and
// deletes at the correct program positions.
func TestScanSeesOwnBufferedEffects(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	for k := int64(1); k <= 3; k++ {
		if _, err := w.Run("Put", storage.Int(k), storage.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	e.MustRegister(&proc.Spec{
		Name: "MutateAndScan",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name: "insert4",
				Body: func(ctx proc.OpCtx) error {
					return ctx.Insert("KV", 4, storage.Tuple{storage.Int(40)})
				},
			})
			b.Op(proc.Op{
				Name: "update2",
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("KV", 2, []int{0}, []storage.Value{storage.Int(200)})
				},
			})
			b.Op(proc.Op{
				Name: "delete1",
				Body: func(ctx proc.OpCtx) error {
					return ctx.Delete("KV", 1)
				},
			})
			b.Op(proc.Op{
				Name:   "scanAll",
				Writes: []string{"sum", "count"},
				Body: func(ctx proc.OpCtx) error {
					env := ctx.Env()
					var sum, count int64
					err := ctx.Scan("KV", 0, 100, 0, func(_ storage.Key, row storage.Tuple) bool {
						sum += row[0].Int()
						count++
						return true
					})
					if err != nil {
						return err
					}
					env.SetInt("sum", sum)
					env.SetInt("count", count)
					return nil
				},
			})
		},
	})
	env, err := w.Run("MutateAndScan")
	if err != nil {
		t.Fatal(err)
	}
	// Expect: 1 deleted (gone), 2 updated to 200, 3 unchanged, 4
	// inserted as 40 → count 3, sum 243.
	if env.Int("count") != 3 || env.Int("sum") != 243 {
		t.Fatalf("scan saw count=%d sum=%d, want 3/243", env.Int("count"), env.Int("sum"))
	}
}

// TestBranchyProcedureHealsViaRestart: a procedure whose access
// pattern branches on a read value cannot always be replayed from the
// access cache; when the branch flips mid-flight the engine must fall
// back to abort-and-restart and still produce the post-conflict
// serial result.
func TestBranchyProcedureHealsViaRestart(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	if _, err := w.Run("Put", storage.Int(1), storage.Int(0)); err != nil { // switch cell
		t.Fatal(err)
	}
	if _, err := w.Run("Put", storage.Int(10), storage.Int(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run("Put", storage.Int(20), storage.Int(0)); err != nil {
		t.Fatal(err)
	}
	e.MustRegister(&proc.Spec{
		Name: "Branch",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:   "readSwitch",
				Writes: []string{"s"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("KV", 1, nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("s", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				// The branch: zero → touch KV[10] twice; nonzero →
				// touch KV[20] once. Different access COUNTS, so a
				// cached replay diverges when the switch flips.
				Name:     "branchy",
				ValReads: []string{"s"},
				Body: func(ctx proc.OpCtx) error {
					if ctx.Env().Int("s") == 0 {
						if _, _, err := ctx.Read("KV", 10, nil); err != nil {
							return err
						}
						return ctx.Write("KV", 10, []int{0}, []storage.Value{storage.Int(1)})
					}
					return ctx.Write("KV", 20, []int{0}, []storage.Value{storage.Int(2)})
				},
			})
		},
	})

	spec, _ := e.Spec("Branch")
	env := spec.Bind(nil)
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	// Flip the switch mid-flight.
	externalCommit(t, e, "KV", 1, 0, storage.Int(7), storage.MakeTS(1, 1))
	err := txn.validateAndCommit()
	if err != errRestart {
		t.Fatalf("branch flip mid-heal = %v, want errRestart (divergence fallback)", err)
	}
	txn.finish(false)

	// The public path converges to the post-flip serial result.
	if _, err := w.Run("Branch"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Catalog().Table("KV")
	r20, _ := tab.Peek(20)
	if got := r20.Tuple()[0].Int(); got != 2 {
		t.Fatalf("KV[20] = %d, want 2 (nonzero branch)", got)
	}
	r10, _ := tab.Peek(10)
	if got := r10.Tuple()[0].Int(); got != 0 {
		t.Fatalf("KV[10] = %d, want 0 (stale branch must not leak)", got)
	}
}

// TestScanLimitUnderPhantomHealing: a LIMIT-ed scan whose range gains
// a row before the cutoff must, after healing, return the new first
// rows.
func TestScanLimitUnderPhantomHealing(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)
	for _, k := range []int64{5, 7, 9} {
		if _, err := w1.Run("Put", storage.Int(k), storage.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	e.MustRegister(&proc.Spec{
		Name: "First2",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:   "scan",
				Writes: []string{"sum"},
				Body: func(ctx proc.OpCtx) error {
					var sum int64
					err := ctx.Scan("KV", 0, 100, 2, func(_ storage.Key, row storage.Tuple) bool {
						sum += row[0].Int()
						return true
					})
					if err != nil {
						return err
					}
					ctx.Env().SetInt("sum", sum)
					return nil
				},
			})
		},
	})
	spec, _ := e.Spec("First2")
	env := spec.Bind(nil)
	txn := newTxn(w1, spec.Instantiate(env), env, firstRung(w1, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env.Int("sum") != 12 { // 5 + 7
		t.Fatalf("initial sum = %d", env.Int("sum"))
	}
	// A row lands before the old cutoff.
	if _, err := w2.Run("Put", storage.Int(3), storage.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env.Int("sum") != 8 { // 3 + 5
		t.Fatalf("healed sum = %d, want 8", env.Int("sum"))
	}
}

// TestTreeOrderAvoidsMembershipAbort demonstrates §4.5: under tree
// order, a key-dependent membership update inserts elements after the
// validation frontier, so a busy lock means waiting (the holder
// commits), never a deadlock-prevention abort. The same scenario
// under address order (TestDeadlockPreventionAbort) aborts.
func TestTreeOrderAvoidsMembershipAbort(t *testing.T) {
	cat := storage.NewCatalog()
	// PTR is rank 0 (validates first), VAL rank 1: healed membership
	// inserts for VAL always land after the PTR frontier.
	cat.MustCreateTable(storage.Schema{
		Name:    "PTR",
		Columns: []storage.ColumnDef{{Name: "p", Kind: storage.KindInt}},
		Rank:    0,
	})
	cat.MustCreateTable(storage.Schema{
		Name:    "VAL",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
		Rank:    1,
	})
	ptr, _ := cat.Table("PTR")
	val, _ := cat.Table("VAL")
	for k := storage.Key(1); k <= 3; k++ {
		val.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}
	ptr.Put(1, storage.Tuple{storage.Int(2)}, 0)

	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1}) // TreeOrder default
	e.MustRegister(&proc.Spec{
		Name: "Chase",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:   "readPtr",
				Writes: []string{"p"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("PTR", 1, nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("p", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "writeVal",
				KeyReads: []string{"p"},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("VAL", storage.Key(ctx.Env().Int("p")), []int{0},
						[]storage.Value{storage.Int(1)})
				},
			})
		},
	})
	w := e.Worker(0)
	spec, _ := e.Spec("Chase")
	env := spec.Bind(nil)
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	// Lock the rerouted target briefly from "another transaction";
	// release it while the healing transaction is spinning in its
	// main validation loop.
	v3, _ := val.Peek(3)
	if !v3.TryLock() {
		t.Fatal("pre-lock failed")
	}
	externalCommit(t, e, "PTR", 1, 0, storage.Int(3), storage.MakeTS(1, 1))

	done := make(chan error, 1)
	go func() { done <- txn.validateAndCommit() }()
	// The validation loop is spinning on VAL[3] now; releasing the
	// lock lets it commit — no abort, exactly the §4.5 argument.
	v3.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("tree order still aborted: %v", err)
	}
	if got := v3.Tuple()[0].Int(); got != 1 {
		t.Fatalf("VAL[3] = %d, want 1", got)
	}
	if w.m.Restarts.Load() != 0 {
		t.Fatalf("restarts = %d, want 0 under tree order", w.m.Restarts.Load())
	}
}

// TestScanThenReadIsSerializableOnEveryRung: T1 scans [1, 100] and
// then reads 500; between its two operations T2 inserts 4, sets
// 500 := 1 and commits. Only two outcomes are serial, count=3 z=0 (T1
// first) and count=4 z=1 (T2 first), and every protocol must commit
// one of them. T1's first attempt is restarted before validation and
// T2 runs inside its second, so under THEDB-HYBRID it races the 2PL
// rung. THEDB-DT is not here: its partition stripes keep T2 out of T1.
func TestScanThenReadIsSerializableOnEveryRung(t *testing.T) {
	for _, p := range []Protocol{Healing, OCC, Silo, TPL, Hybrid} {
		t.Run(p.String(), func(t *testing.T) {
			sched := fault.NewSchedule(1, 2)
			sched.ScriptAt(0, fault.PreValidation, 0, fault.ActRestart)
			e := kvEngine(t, Options{Protocol: p, Workers: 2, Chaos: sched})
			w1, w2 := e.Worker(0), e.Worker(1)
			for _, k := range []int64{1, 2, 3, 500} {
				if _, err := w2.Run("Put", storage.Int(k), storage.Int(0)); err != nil {
					t.Fatal(err)
				}
			}
			e.MustRegister(&proc.Spec{
				Name: "InsertThenWrite",
				Plan: func(b *proc.Builder, _ *proc.Env) {
					b.Op(proc.Op{Name: "insert", Body: func(ctx proc.OpCtx) error {
						return ctx.Insert("KV", 4, storage.Tuple{storage.Int(0)})
					}})
					b.Op(proc.Op{Name: "write", Body: func(ctx proc.OpCtx) error {
						if _, _, err := ctx.Read("KV", 500, nil); err != nil {
							return err
						}
						return ctx.Write("KV", 500, []int{0}, []storage.Value{storage.Int(1)})
					}})
				},
			})
			scans := 0
			e.MustRegister(&proc.Spec{
				Name: "ScanThenRead",
				Plan: func(b *proc.Builder, _ *proc.Env) {
					b.Op(proc.Op{Name: "scan", Writes: []string{"count"}, Body: func(ctx proc.OpCtx) error {
						var n int64
						err := ctx.Scan("KV", 1, 100, 0, func(storage.Key, storage.Tuple) bool { n++; return true })
						if err != nil {
							return err
						}
						ctx.Env().SetInt("count", n)
						if scans++; scans == 2 {
							if _, err := w2.Run("InsertThenWrite"); err != nil {
								t.Errorf("T2: %v", err)
							}
						}
						return nil
					}})
					b.Op(proc.Op{Name: "read", Writes: []string{"z"}, Body: func(ctx proc.OpCtx) error {
						row, _, err := ctx.Read("KV", 500, nil)
						if err != nil {
							return err
						}
						ctx.Env().SetInt("z", row[0].Int())
						return nil
					}})
				},
			})
			env, err := w1.Run("ScanThenRead")
			if err != nil {
				t.Fatal(err)
			}
			if scans < 2 {
				t.Fatalf("T2 never ran inside T1 (%d scans)", scans)
			}
			count, z := env.Int("count"), env.Int("z")
			if !(count == 3 && z == 0 || count == 4 && z == 1) {
				t.Fatalf("T1 committed count=%d z=%d; the serial outcomes are count=3 z=0 and count=4 z=1", count, z)
			}
		})
	}
}
