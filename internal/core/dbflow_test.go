package core

import (
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestReadAfterHealedWrite pins the intra-transaction
// read-after-write flow: op1's buffered write to KV[8] is restored by
// healing (it is value-dependent on the inconsistent read), and op2 —
// which read KV[8] through the database, a dependency invisible to
// the variable-level graph — must be restored as well. Regression
// test for the notifyReaders mechanism.
func TestReadAfterHealedWrite(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "KV",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("KV")
	tab.Put(8, storage.Tuple{storage.Int(0)}, 0)
	tab.Put(10, storage.Tuple{storage.Int(100)}, 0)

	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1})
	e.MustRegister(&proc.Spec{
		Name: "P",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{ // op0: read KV[10] -> v0
				Name:   "r10",
				Writes: []string{"v0"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("KV", 10, nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("v0", row[0])
					return nil
				},
			})
			b.Op(proc.Op{ // op1: write KV[8] = v0 (val-dep on op0)
				Name:     "w8",
				ValReads: []string{"v0"},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("KV", 8, []int{0},
						[]storage.Value{storage.Int(ctx.Env().Int("v0"))})
				},
			})
			b.Op(proc.Op{ // op2: read KV[8] -> v2 (DB flow from op1)
				Name:   "r8",
				Writes: []string{"v2"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("KV", 8, nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("v2", row[0])
					return nil
				},
			})
		},
	})
	w := e.Worker(0)
	spec, _ := e.Spec("P")
	env := spec.Bind(nil)
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "KV", 10, 0, storage.Int(777), storage.MakeTS(1, 1))
	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env.Int("v2") != 777 {
		t.Fatalf("v2 = %d, want 777", env.Int("v2"))
	}
}

// TestHealedWriteRetraction pins the reexec write-retraction bug: a
// key-dependent re-execution must retract the op's old buffered write
// before the access list is rebuilt, or the stale write commits to
// the stale key.
func TestHealedWriteRetraction(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "KV",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("KV")
	tab.Put(1, storage.Tuple{storage.Int(2)}, 0) // pointer cell
	tab.Put(2, storage.Tuple{storage.Int(0)}, 0)
	tab.Put(3, storage.Tuple{storage.Int(0)}, 0)

	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1})
	e.MustRegister(&proc.Spec{
		Name: "WriteAtPointer",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:   "readPtr",
				Writes: []string{"p"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("KV", 1, nil)
					if err != nil {
						return err
					}
					ctx.Env().SetVal("p", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "writeAtP",
				KeyReads: []string{"p"},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("KV", storage.Key(ctx.Env().Int("p")), []int{0},
						[]storage.Value{storage.Int(99)})
				},
			})
		},
	})
	w := e.Worker(0)
	spec, _ := e.Spec("WriteAtPointer")
	env := spec.Bind(nil)
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "KV", 1, 0, storage.Int(3), storage.MakeTS(1, 1))
	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	r2, _ := tab.Peek(2)
	if got := r2.Tuple()[0].Int(); got != 0 {
		t.Fatalf("stale key written: KV[2] = %d, want 0", got)
	}
	r3, _ := tab.Peek(3)
	if got := r3.Tuple()[0].Int(); got != 99 {
		t.Fatalf("healed key missed: KV[3] = %d, want 99", got)
	}
}
