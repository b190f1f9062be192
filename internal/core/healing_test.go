package core

import (
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// The tests in this file reproduce the paper's running example
// (Figures 1, 4, 5): a bank transfer whose destination account is
// looked up through a client record, giving both value and key
// dependencies.
//
// Tables (keys are account ids):
//
//	CLIENT  key -> {client}   the transfer destination for an account
//	BALANCE key -> {balance}
//	BONUS   key -> {bonus}
//
// Transfer(src, amount):
//
//	op0: dst    <- read  CLIENT[src]
//	op1: srcVal <- read  BALANCE[src]
//	op2: dstVal <- read  BALANCE[dst]          (key-dep on op0)
//	op3: write BALANCE[src] = srcVal - amount  (val-dep on op1)
//	op4: write BALANCE[dst] = dstVal + amount  (key-dep on op0, val-dep on op2)
//	op5: bonus  <- read  BONUS[src]
//	op6: write BONUS[src] = bonus + 1          (val-dep on op5)
func transferSpec() *proc.Spec {
	return &proc.Spec{
		Name:   "Transfer",
		Params: []string{"src", "amount"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "readClient",
				KeyReads: []string{"src"},
				Writes:   []string{"dst"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("CLIENT", storage.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("dst", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "readSrcBal",
				KeyReads: []string{"src"},
				Writes:   []string{"srcVal"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("BALANCE", storage.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("srcVal", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "readDstBal",
				KeyReads: []string{"dst"},
				Writes:   []string{"dstVal"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("BALANCE", storage.Key(ctx.Env().Int("dst")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("dstVal", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "writeSrcBal",
				KeyReads: []string{"src"},
				ValReads: []string{"srcVal", "amount"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BALANCE", storage.Key(e.Int("src")), []int{0},
						[]storage.Value{storage.Int(e.Int("srcVal") - e.Int("amount"))})
				},
			})
			b.Op(proc.Op{
				Name:     "writeDstBal",
				KeyReads: []string{"dst"},
				ValReads: []string{"dstVal", "amount"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BALANCE", storage.Key(e.Int("dst")), []int{0},
						[]storage.Value{storage.Int(e.Int("dstVal") + e.Int("amount"))})
				},
			})
			b.Op(proc.Op{
				Name:     "readBonus",
				KeyReads: []string{"src"},
				Writes:   []string{"bonus"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("BONUS", storage.Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("bonus", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "writeBonus",
				KeyReads: []string{"src"},
				ValReads: []string{"bonus"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BONUS", storage.Key(e.Int("src")), []int{0},
						[]storage.Value{storage.Int(e.Int("bonus") + 1)})
				},
			})
		},
	}
}

const (
	amy  = 1
	dan  = 2
	dave = 3
)

func bankEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
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
	client.Put(amy, storage.Tuple{storage.Int(dan)}, 0)
	client.Put(dan, storage.Tuple{storage.Int(amy)}, 0)
	client.Put(dave, storage.Tuple{storage.Int(amy)}, 0)
	balance.Put(amy, storage.Tuple{storage.Int(2000)}, 0)
	balance.Put(dan, storage.Tuple{storage.Int(1200)}, 0)
	balance.Put(dave, storage.Tuple{storage.Int(500)}, 0)
	bonus.Put(amy, storage.Tuple{storage.Int(18)}, 0)
	bonus.Put(dan, storage.Tuple{storage.Int(7)}, 0)
	bonus.Put(dave, storage.Tuple{storage.Int(3)}, 0)

	e := NewEngine(cat, opts)
	e.MustRegister(transferSpec())
	return e
}

func balanceOf(t *testing.T, e *Engine, key storage.Key) int64 {
	t.Helper()
	tab, _ := e.Catalog().Table("BALANCE")
	rec, ok := tab.Peek(key)
	if !ok {
		t.Fatalf("no BALANCE record for key %d", key)
	}
	return rec.Tuple()[0].Int()
}

func bonusOf(t *testing.T, e *Engine, key storage.Key) int64 {
	t.Helper()
	tab, _ := e.Catalog().Table("BONUS")
	rec, _ := tab.Peek(key)
	return rec.Tuple()[0].Int()
}

// externalCommit simulates a committed concurrent transaction: it
// locks the record, installs a new value, stamps a fresh timestamp,
// and unlocks.
func externalCommit(t *testing.T, e *Engine, table string, key storage.Key, col int, v storage.Value, ts uint64) {
	t.Helper()
	tab, _ := e.Catalog().Table(table)
	rec, ok := tab.Peek(key)
	if !ok {
		t.Fatalf("no %s record for key %d", table, key)
	}
	if !rec.TryLock() {
		t.Fatalf("record %s[%d] unexpectedly locked", table, key)
	}
	tuple := rec.Tuple().Clone()
	tuple[col] = v
	rec.SetTuple(tuple)
	rec.SetTimestamp(ts)
	rec.Unlock()
}

func TestTransferDependencyGraph(t *testing.T) {
	spec := transferSpec()
	prog := spec.Instantiate(spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)}))
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if prog.Independent {
		t.Fatal("Transfer must be classified dependent (op2/op4 are key-dependent)")
	}
	// op0 -> K -> op2, op4
	kc := prog.Op(0).KeyChildren()
	if len(kc) != 2 || kc[0].ID != 2 || kc[1].ID != 4 {
		t.Fatalf("op0 key children = %v", ids(kc))
	}
	// op1 -> V -> op3
	vc := prog.Op(1).ValChildren()
	if len(vc) != 1 || vc[0].ID != 3 {
		t.Fatalf("op1 val children = %v", ids(vc))
	}
	// op2 -> V -> op4
	vc = prog.Op(2).ValChildren()
	if len(vc) != 1 || vc[0].ID != 4 {
		t.Fatalf("op2 val children = %v", ids(vc))
	}
	// op5 -> V -> op6
	vc = prog.Op(5).ValChildren()
	if len(vc) != 1 || vc[0].ID != 6 {
		t.Fatalf("op5 val children = %v", ids(vc))
	}
}

func ids(ops []*proc.Op) []int {
	var out []int
	for _, o := range ops {
		out = append(out, o.ID)
	}
	return out
}

func TestTransferNoConflict(t *testing.T) {
	for _, p := range []Protocol{Healing, OCC, Silo, TPL, Hybrid} {
		t.Run(p.String(), func(t *testing.T) {
			e := bankEngine(t, Options{Protocol: p, Workers: 1})
			w := e.Worker(0)
			if _, err := w.Run("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
				t.Fatal(err)
			}
			if got := balanceOf(t, e, amy); got != 1980 {
				t.Errorf("amy balance = %d, want 1980", got)
			}
			if got := balanceOf(t, e, dan); got != 1220 {
				t.Errorf("dan balance = %d, want 1220", got)
			}
			if got := bonusOf(t, e, amy); got != 19 {
				t.Errorf("amy bonus = %d, want 19", got)
			}
			if w.m.Committed.Load() != 1 || w.m.Restarts.Load() != 0 || w.m.Aborted.Load() != 0 {
				t.Errorf("metrics = %+v", w.m.Snapshot())
			}
		})
	}
}

// TestHealValueDependent reproduces Figure 4's scenario: a concurrent
// transaction bumps Amy's balance between T1's read and validation.
// Healing must restore ops 1, 3 (and the bonus chain is untouched);
// the transaction commits without restart and the final balances
// reflect the concurrent update.
func TestHealValueDependent(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	prog := spec.Instantiate(env)
	txn := newTxn(w, prog, env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	// Concurrent commit: Amy's balance 2000 -> 2500.
	externalCommit(t, e, "BALANCE", amy, 0, storage.Int(2500), storage.MakeTS(1, 1))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if w.m.Heals.Load() != 1 {
		t.Errorf("heals = %d, want 1", w.m.Heals.Load())
	}
	if got := balanceOf(t, e, amy); got != 2480 {
		t.Errorf("amy balance = %d, want 2480 (2500 - 20)", got)
	}
	if got := balanceOf(t, e, dan); got != 1220 {
		t.Errorf("dan balance = %d, want 1220", got)
	}
	if got := bonusOf(t, e, amy); got != 19 {
		t.Errorf("amy bonus = %d, want 19", got)
	}
}

// TestHealKeyDependent reproduces Figure 5's scenario: a concurrent
// transaction changes Amy's client from Dan to Dave while T1 is in
// flight. Healing must re-execute the key-dependent ops (2 and 4),
// performing a read/write-set membership update: the money lands in
// Dave's account, and Dan's balance is untouched.
func TestHealKeyDependent(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	prog := spec.Instantiate(env)
	txn := newTxn(w, prog, env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	externalCommit(t, e, "CLIENT", amy, 0, storage.Int(dave), storage.MakeTS(1, 1))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if w.m.Heals.Load() != 1 {
		t.Errorf("heals = %d, want 1", w.m.Heals.Load())
	}
	if got := balanceOf(t, e, amy); got != 1980 {
		t.Errorf("amy balance = %d, want 1980", got)
	}
	if got := balanceOf(t, e, dan); got != 1200 {
		t.Errorf("dan balance = %d, want 1200 (untouched after heal)", got)
	}
	if got := balanceOf(t, e, dave); got != 520 {
		t.Errorf("dave balance = %d, want 520 (500 + 20)", got)
	}
	if got := env.Int("dst"); got != dave {
		t.Errorf("healed dst = %d, want %d (query result healed)", got, dave)
	}
}

// TestHealBothDependencies changes both the client pointer and the
// source balance concurrently; healing must fix the whole chain.
func TestHealBothDependencies(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	prog := spec.Instantiate(env)
	txn := newTxn(w, prog, env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	externalCommit(t, e, "CLIENT", amy, 0, storage.Int(dave), storage.MakeTS(1, 1))
	externalCommit(t, e, "BALANCE", amy, 0, storage.Int(3000), storage.MakeTS(1, 2))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if got := balanceOf(t, e, amy); got != 2980 {
		t.Errorf("amy balance = %d, want 2980", got)
	}
	if got := balanceOf(t, e, dave); got != 520 {
		t.Errorf("dave balance = %d, want 520", got)
	}
	if got := balanceOf(t, e, dan); got != 1200 {
		t.Errorf("dan balance = %d, want 1200", got)
	}
}

// TestFalseInvalidation writes a column the reader did not read: the
// timestamp changes but the healing engine must dismiss the mismatch
// without restoring any operation (§4.5, Fig. 6).
func TestFalseInvalidation(t *testing.T) {
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

	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1})
	spec := &proc.Spec{
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
			b.Op(proc.Op{
				Name:     "writeA",
				KeyReads: []string{"k"},
				ValReads: []string{"a"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("WIDE", storage.Key(e.Int("k")), []int{0},
						[]storage.Value{storage.Int(e.Int("a") + 1)})
				},
			})
		},
	}
	e.MustRegister(spec)
	w := e.Worker(0)

	env := spec.Bind([]storage.Value{storage.Int(1)})
	prog := spec.Instantiate(env)
	txn := newTxn(w, prog, env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	// Concurrent commit touches only column b.
	externalCommit(t, e, "WIDE", 1, 1, storage.Int(99), storage.MakeTS(1, 1))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if w.m.Heals.Load() != 0 {
		t.Errorf("heals = %d, want 0 (false invalidation dismissed)", w.m.Heals.Load())
	}
	if w.m.FalseInval.Load() != 1 {
		t.Errorf("false invalidations = %d, want 1", w.m.FalseInval.Load())
	}
	rec, _ := tab.Peek(1)
	if got := rec.Tuple()[0].Int(); got != 11 {
		t.Errorf("a = %d, want 11", got)
	}
	if got := rec.Tuple()[1].Int(); got != 99 {
		t.Errorf("b = %d, want 99 (concurrent write preserved)", got)
	}
}

// TestHealOCCRestartsInstead confirms the OCC baseline aborts and
// restarts on the same conflict that healing repairs in place.
func TestHealOCCRestartsInstead(t *testing.T) {
	e := bankEngine(t, Options{Protocol: OCC, Workers: 1})
	w := e.Worker(0)

	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	prog := spec.Instantiate(env)
	txn := newTxn(w, prog, env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "BALANCE", amy, 0, storage.Int(2500), storage.MakeTS(1, 1))
	err := txn.validateAndCommit()
	if err != errRestart {
		t.Fatalf("validateAndCommit = %v, want errRestart", err)
	}
	txn.finish(false)
	// The full Run path must converge by restarting.
	if _, err := w.Run("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
		t.Fatal(err)
	}
	if got := balanceOf(t, e, amy); got != 2480 {
		t.Errorf("amy balance = %d, want 2480", got)
	}
}
