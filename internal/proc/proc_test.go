package proc

import (
	"strings"
	"testing"
	"testing/quick"

	"thedb/internal/storage"
)

// nopBody satisfies the Validate requirement for structural tests.
func nopBody(OpCtx) error { return nil }

func mkSpec(ops ...Op) *Spec {
	return &Spec{
		Name:   "T",
		Params: []string{"a"},
		Plan: func(b *Builder, _ *Env) {
			for _, o := range ops {
				o.Body = nopBody
				b.Op(o)
			}
		},
	}
}

func TestKeyAndValueDependencies(t *testing.T) {
	spec := mkSpec(
		Op{Name: "p", KeyReads: []string{"a"}, Writes: []string{"x", "y"}},
		Op{Name: "kchild", KeyReads: []string{"x"}},
		Op{Name: "vchild", ValReads: []string{"y"}},
		Op{Name: "both", KeyReads: []string{"x"}, ValReads: []string{"y"}},
	)
	prog := spec.Instantiate(NewEnv())
	p := prog.Op(0)
	if got := ids(p.KeyChildren()); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("key children = %v", got)
	}
	// Op 3 reads x as key and y as value from the same parent: the
	// key dependency subsumes the value one (re-execution covers
	// both), so it must appear once, as a key child.
	if got := ids(p.ValChildren()); len(got) != 1 || got[0] != 2 {
		t.Fatalf("val children = %v", got)
	}
	if prog.Independent {
		t.Fatal("program with key deps classified independent")
	}
}

func TestLastDefinitionWins(t *testing.T) {
	spec := mkSpec(
		Op{Name: "def1", Writes: []string{"x"}},
		Op{Name: "def2", Writes: []string{"x"}},
		Op{Name: "use", ValReads: []string{"x"}},
	)
	prog := spec.Instantiate(NewEnv())
	if n := len(prog.Op(0).ValChildren()); n != 0 {
		t.Fatalf("stale definition has %d children", n)
	}
	if got := ids(prog.Op(1).ValChildren()); len(got) != 1 || got[0] != 2 {
		t.Fatalf("latest definition children = %v", got)
	}
}

func TestIndependentClassification(t *testing.T) {
	indep := mkSpec(
		Op{Name: "r", KeyReads: []string{"a"}, Writes: []string{"v"}},
		Op{Name: "w", KeyReads: []string{"a"}, ValReads: []string{"v"}},
	)
	if !indep.Instantiate(NewEnv()).Independent {
		t.Fatal("RMW on argument keys must be independent")
	}
	dep := mkSpec(
		Op{Name: "r", KeyReads: []string{"a"}, Writes: []string{"v"}},
		Op{Name: "w", KeyReads: []string{"v"}},
	)
	if dep.Instantiate(NewEnv()).Independent {
		t.Fatal("derived key must make the program dependent")
	}
}

func TestGraphRendering(t *testing.T) {
	spec := mkSpec(
		Op{Name: "read", KeyReads: []string{"a"}, Writes: []string{"x"}},
		Op{Name: "use", KeyReads: []string{"x"}},
	)
	g := spec.Instantiate(NewEnv()).Graph()
	if !strings.Contains(g, "0 read: K->1") {
		t.Fatalf("graph rendering:\n%s", g)
	}
}

func TestValidate(t *testing.T) {
	ok := mkSpec(Op{Name: "a"}, Op{Name: "b"})
	if err := ok.Instantiate(NewEnv()).Validate(); err != nil {
		t.Fatal(err)
	}
	noBody := &Spec{
		Name: "NB",
		Plan: func(b *Builder, _ *Env) { b.Op(Op{Name: "x"}) },
	}
	if err := noBody.Instantiate(NewEnv()).Validate(); err == nil {
		t.Fatal("missing body not rejected")
	}
	writesParam := &Spec{
		Name:   "WP",
		Params: []string{"a"},
		Plan: func(b *Builder, _ *Env) {
			b.Op(Op{Name: "x", Writes: []string{"a"}, Body: nopBody})
		},
	}
	if err := writesParam.Instantiate(NewEnv()).Validate(); err == nil {
		t.Fatal("parameter write not rejected")
	}
}

func TestEnvTypedAccess(t *testing.T) {
	e := NewEnv()
	e.SetInt("i", 42)
	e.SetStr("s", "hi")
	e.SetFloat("f", 2.5)
	e.SetVals("vs", []storage.Value{storage.Int(1), storage.Int(2)})
	if e.Int("i") != 42 || e.Str("s") != "hi" || e.Float("f") != 2.5 {
		t.Fatal("scalar round trips failed")
	}
	if len(e.Vals("vs")) != 2 {
		t.Fatal("slice round trip failed")
	}
	if !e.Has("i") || e.Has("nope") {
		t.Fatal("Has broken")
	}
	c := e.Clone()
	c.SetInt("i", 1)
	if e.Int("i") != 42 {
		t.Fatal("clone aliases parent")
	}
}

func TestEnvPanicsOnUndefined(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reading undefined variable")
		}
	}()
	NewEnv().Int("missing")
}

// TestCheckedModeCatchesUndeclaredAccess verifies the honesty checker
// the analyzer's soundness rests on: an op body touching variables
// outside its declared sets is reported.
func TestCheckedModeCatchesUndeclaredAccess(t *testing.T) {
	e := NewEnv()
	e.SetInt("declared", 1)
	e.SetInt("hidden", 2)
	op := &Op{Name: "x", ValReads: []string{"declared"}, Writes: []string{"out"}}

	err := e.CheckOp(op, func() error {
		e.SetInt("out", e.Int("declared"))
		return nil
	})
	if err != nil {
		t.Fatalf("compliant body flagged: %v", err)
	}

	err = e.CheckOp(op, func() error {
		e.SetInt("out", e.Int("hidden")) // undeclared read
		return nil
	})
	if err == nil {
		t.Fatal("undeclared read not caught")
	}

	err = e.CheckOp(op, func() error {
		e.SetInt("sneaky", 1) // undeclared write
		return nil
	})
	if err == nil {
		t.Fatal("undeclared write not caught")
	}
}

// TestDependencyEdgesAlwaysForward is the property drainHealQueue's
// correctness rests on: every dependency edge points from a lower op
// ID to a higher one.
func TestDependencyEdgesAlwaysForward(t *testing.T) {
	vars := []string{"a", "b", "c", "d"}
	check := func(shape []uint8) bool {
		var ops []Op
		for i, s := range shape {
			if i > 8 {
				break
			}
			op := Op{Name: "op"}
			op.KeyReads = []string{vars[int(s)%len(vars)]}
			op.ValReads = []string{vars[int(s>>2)%len(vars)]}
			op.Writes = []string{vars[int(s>>4)%len(vars)]}
			ops = append(ops, op)
		}
		prog := mkSpec(ops...).Instantiate(NewEnv())
		for _, op := range prog.Ops {
			for _, c := range op.KeyChildren() {
				if c.ID <= op.ID {
					return false
				}
			}
			for _, c := range op.ValChildren() {
				if c.ID <= op.ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func ids(ops []*Op) []int {
	var out []int
	for _, o := range ops {
		out = append(out, o.ID)
	}
	return out
}

func TestDOTRendering(t *testing.T) {
	spec := mkSpec(
		Op{Name: "read", KeyReads: []string{"a"}, Writes: []string{"x", "y"}},
		Op{Name: "kchild", KeyReads: []string{"x"}},
		Op{Name: "vchild", ValReads: []string{"y"}},
	)
	dot := spec.Instantiate(NewEnv()).Graph()
	_ = dot
	d := spec.Instantiate(NewEnv()).DOT()
	for _, want := range []string{
		`digraph "T"`,
		`op0 -> op1 [style=solid]`,
		`op0 -> op2 [style=dashed]`,
	} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q:\n%s", want, d)
		}
	}
}

// TestBindAliasRule pins what an argument is bound under: its parameter
// name when the Spec declares one — and then not under its positional
// alias too, so it is boxed, sorted and echoed to a remote caller once —
// and $i only for the tail beyond the named prefix (NewOrder's order
// lines start at $6, after six named parameters).
func TestBindAliasRule(t *testing.T) {
	ycsbRead := &Spec{Name: "YCSBRead", Params: []string{"k"}}
	env := ycsbRead.Bind([]storage.Value{storage.Int(42)})
	if env.Int("k") != 42 || env.Has("$0") {
		t.Fatalf("one named argument: k = %v, has $0 = %v; want 42 and no alias", env.Val("k"), env.Has("$0"))
	}
	if got := len(env.Sorted(nil)); got != 1 {
		t.Fatalf("one named argument binds %d variables, want 1", got)
	}

	newOrder := &Spec{Name: "NewOrder", Params: []string{"w", "d", "c", "ol_cnt", "entry", "rbk"}}
	args := make([]storage.Value, 6+3*2)
	for i := range args {
		args[i] = storage.Int(int64(100 + i))
	}
	env = newOrder.Bind(args)
	for i, name := range newOrder.Params {
		if env.Int(name) != int64(100+i) || env.Has(positional[i]) {
			t.Fatalf("parameter %d: %s = %v, has %s = %v", i, name, env.Val(name), positional[i], env.Has(positional[i]))
		}
	}
	for i := len(newOrder.Params); i < len(args); i++ {
		if !env.Has(positional[i]) || env.Int(positional[i]) != int64(100+i) {
			t.Fatalf("tail argument %d not bound under %s", i, positional[i])
		}
	}
	if got := len(env.Sorted(nil)); got != len(args) {
		t.Fatalf("%d arguments bind %d variables", len(args), got)
	}

	// Past the precomputed alias names the rule is the same.
	long := make([]storage.Value, len(positional)+2)
	env = (&Spec{Name: "Variadic"}).Bind(long)
	if !env.Has("$0") || !env.Has("$65") || len(env.Sorted(nil)) != len(long) {
		t.Fatalf("parameterless spec: $0 %v, $65 %v, %d variables", env.Has("$0"), env.Has("$65"), len(env.Sorted(nil)))
	}
}
