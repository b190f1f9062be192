package core

import (
	"fmt"
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// chainSpec builds a pointer-chase of the given depth: each hop reads
// PTR[key] to obtain the next key, and the final op writes VAL at the
// last key. Every hop is key-dependent on the previous one, so an
// inconsistency at hop k must restore exactly hops k..depth.
func chainSpec(depth int) *proc.Spec {
	return &proc.Spec{
		Name:   "Chain",
		Params: []string{"k0"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			prev := "k0"
			for i := 1; i <= depth; i++ {
				cur := fmt.Sprintf("k%d", i)
				prevVar := prev
				b.Op(proc.Op{
					Name:     fmt.Sprintf("hop%d", i),
					KeyReads: []string{prevVar},
					Writes:   []string{cur},
					Body: func(ctx proc.OpCtx) error {
						row, ok, err := ctx.Read("PTR", storage.Key(ctx.Env().Int(prevVar)), nil)
						if err != nil {
							return err
						}
						if !ok {
							return proc.UserAbort("broken chain")
						}
						ctx.Env().SetVal(cur, row[0])
						return nil
					},
				})
				prev = cur
			}
			last := prev
			b.Op(proc.Op{
				Name:     "mark",
				KeyReads: []string{last},
				Body: func(ctx proc.OpCtx) error {
					return ctx.Write("VAL", storage.Key(ctx.Env().Int(last)), []int{0},
						[]storage.Value{storage.Int(1)})
				},
			})
		},
	}
}

func chainEngine(t *testing.T, depth int) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "PTR",
		Columns: []storage.ColumnDef{{Name: "next", Kind: storage.KindInt}},
	})
	cat.MustCreateTable(storage.Schema{
		Name:    "VAL",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	ptr, _ := cat.Table("PTR")
	val, _ := cat.Table("VAL")
	// Identity-ish chain: i -> i+1, plus an alternate branch at 100.
	for i := int64(0); i < 120; i++ {
		ptr.Put(storage.Key(i), storage.Tuple{storage.Int(i + 1)}, 0)
		val.Put(storage.Key(i), storage.Tuple{storage.Int(0)}, 0)
	}
	val.Put(200, storage.Tuple{storage.Int(0)}, 0)
	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1})
	e.MustRegister(chainSpec(depth))
	return e
}

// TestHealPropagatesThroughChain changes the FIRST hop's pointer
// mid-flight: every downstream hop is key-dependent, so the healing
// pass must re-execute the whole chain and the write must land at the
// rerouted destination.
func TestHealPropagatesThroughChain(t *testing.T) {
	const depth = 4
	e := chainEngine(t, depth)
	w := e.Worker(0)
	spec, _ := e.Spec("Chain")

	env := spec.Bind([]storage.Value{storage.Int(0)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	// Original walk: 0->1->2->3->4, mark VAL[4].
	if env.Int("k4") != 4 {
		t.Fatalf("walk ended at %d", env.Int("k4"))
	}

	// Concurrent commit reroutes hop 1: 0 -> 100 (then 101, 102...).
	externalCommit(t, e, "PTR", 0, 0, storage.Int(100), storage.MakeTS(1, 1))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if got := env.Int("k4"); got != 103 {
		t.Fatalf("healed walk ended at %d, want 103", got)
	}
	// All depth hops after hop1 plus the mark were restored, plus
	// hop1 itself: depth+1 ops.
	if got := w.m.HealedOps.Load(); got != depth+1 {
		t.Errorf("healed ops = %d, want %d", got, depth+1)
	}
	val, _ := e.Catalog().Table("VAL")
	if rec, _ := val.Peek(103); rec.Tuple()[0].Int() != 1 {
		t.Error("mark did not land at the rerouted destination")
	}
	if rec, _ := val.Peek(4); rec.Tuple()[0].Int() != 0 {
		t.Error("mark leaked to the stale destination (membership update failed)")
	}
}

// TestHealMidChain changes a MIDDLE hop: upstream hops must not be
// restored.
func TestHealMidChain(t *testing.T) {
	const depth = 4
	e := chainEngine(t, depth)
	w := e.Worker(0)
	spec, _ := e.Spec("Chain")

	env := spec.Bind([]storage.Value{storage.Int(0)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}

	// Reroute hop 3's input: PTR[2] = 100.
	externalCommit(t, e, "PTR", 2, 0, storage.Int(100), storage.MakeTS(1, 1))

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if got := env.Int("k2"); got != 2 {
		t.Errorf("upstream hop changed: k2 = %d", got)
	}
	if got := env.Int("k4"); got != 101 {
		t.Errorf("healed walk ended at %d, want 101", got)
	}
	// hop3 (the bookmark), hop4, mark: 3 restorations.
	if got := w.m.HealedOps.Load(); got != 3 {
		t.Errorf("healed ops = %d, want 3 (hop3, hop4, mark)", got)
	}
}

// peopleEngine builds PEOPLE(name, age) with the secondary index
// by_name ("name|pk"), rows 1 and 2 named smith and 3 named jones, and
// the procedures CountName(name) → n, a ScanSec over one name, and
// AddPerson(k, name).
func peopleEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name: "PEOPLE",
		Columns: []storage.ColumnDef{
			{Name: "name", Kind: storage.KindString},
			{Name: "age", Kind: storage.KindInt},
		},
		Secondaries: []storage.SecondaryDef{{
			Name: "by_name",
			Key: func(pk storage.Key, t storage.Tuple) string {
				return fmt.Sprintf("%s|%016x", t[0].Str(), uint64(pk))
			},
		}},
	})
	people, _ := cat.Table("PEOPLE")
	people.Put(1, storage.Tuple{storage.Str("smith"), storage.Int(30)}, 0)
	people.Put(2, storage.Tuple{storage.Str("smith"), storage.Int(40)}, 0)
	people.Put(3, storage.Tuple{storage.Str("jones"), storage.Int(50)}, 0)

	e := NewEngine(cat, opts)
	e.MustRegister(&proc.Spec{
		Name:   "CountName",
		Params: []string{"name"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "scan",
				KeyReads: []string{"name"},
				Writes:   []string{"n"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					prefix := e.Str("name") + "|"
					var n int64
					err := ctx.ScanSec("PEOPLE", "by_name", prefix, prefix+"\xff", 0,
						func(storage.Key, storage.Tuple) bool {
							n++
							return true
						})
					if err != nil {
						return err
					}
					e.SetInt("n", n)
					return nil
				},
			})
		},
	})
	e.MustRegister(&proc.Spec{
		Name:   "AddPerson",
		Params: []string{"k", "name"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "insert",
				KeyReads: []string{"k"},
				ValReads: []string{"name"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Insert("PEOPLE", storage.Key(e.Int("k")),
						storage.Tuple{storage.Str(e.Str("name")), storage.Int(20)})
				},
			})
		},
	})
	return e
}

// TestSecondaryScanPhantomHealing exercises §4.7.2 through a
// secondary index: a concurrent insert matching the scanned name
// range must be healed into the scan's aggregate.
func TestSecondaryScanPhantomHealing(t *testing.T) {
	e := peopleEngine(t, Options{Protocol: Healing, Workers: 2})
	w1, w2 := e.Worker(0), e.Worker(1)

	spec, _ := e.Spec("CountName")
	env := spec.Bind([]storage.Value{storage.Str("smith")})
	txn := newTxn(w1, spec.Instantiate(env), env, firstRung(w1, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	if env.Int("n") != 2 {
		t.Fatalf("initial count = %d", env.Int("n"))
	}

	if _, err := w2.Run("AddPerson", storage.Int(4), storage.Str("smith")); err != nil {
		t.Fatal(err)
	}

	if err := txn.validateAndCommit(); err != nil {
		t.Fatal(err)
	}
	if env.Int("n") != 3 {
		t.Fatalf("healed count = %d, want 3 (secondary phantom)", env.Int("n"))
	}
}

// TestWorstCaseOrderStillCorrect: THEDB-W (reversed validation order)
// must stay serializable — only its abort rate differs.
func TestWorstCaseOrderStillCorrect(t *testing.T) {
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, Order: ReverseTreeOrder})
	w := e.Worker(0)
	spec, _ := e.Spec("Transfer")
	env := spec.Bind([]storage.Value{storage.Int(amy), storage.Int(20)})
	txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
	if err := txn.readPhase(); err != nil {
		t.Fatal(err)
	}
	externalCommit(t, e, "CLIENT", amy, 0, storage.Int(dave), storage.MakeTS(1, 1))
	// Either the heal succeeds or deadlock prevention restarts — both
	// are correct; drive to completion through Run in the latter case.
	if err := txn.validateAndCommit(); err != nil {
		if err != errRestart {
			t.Fatal(err)
		}
		txn.finish(false)
		if _, err := w.Run("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
			t.Fatal(err)
		}
	}
	if got := balanceOf(t, e, dave); got != 520 {
		t.Errorf("dave balance = %d, want 520", got)
	}
	if got := balanceOf(t, e, dan); got != 1200 {
		t.Errorf("dan balance = %d, want 1200", got)
	}
}
