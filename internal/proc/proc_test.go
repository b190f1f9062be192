package proc

import (
	"errors"
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

// fakeCtx is an OpCtx that only carries an environment: enough to run
// bodies that touch no records.
type fakeCtx struct {
	OpCtx
	env *Env
}

func (c fakeCtx) Env() *Env { return c.env }

// started binds args for spec and lays the environment out for its
// Program, as an engine does before the first operation runs.
func started(spec *Spec, args ...storage.Value) (*Program, fakeCtx) {
	env := spec.Bind(args)
	prog := spec.Instantiate(env)
	env.Start(prog)
	return prog, fakeCtx{env: env}
}

func TestEnvTypedAccess(t *testing.T) {
	spec := &Spec{Name: "T", Params: []string{"n"}, Plan: func(b *Builder, _ *Env) {
		b.Op(Op{Name: "w", ValReads: []string{"n"}, Writes: []string{"i", "s", "f", "vs"}, Body: func(ctx OpCtx) error {
			e := ctx.Env()
			e.SetInt("i", e.Int("n"))
			e.SetVal("s", storage.Str("hi"))
			e.SetVal("f", storage.Float(2.5))
			e.SetVals("vs", []storage.Value{storage.Int(1), storage.Int(2)})
			return nil
		}})
	}}
	prog, ctx := started(spec, storage.Int(42))
	if err := prog.Op(0).Run(ctx); err != nil {
		t.Fatal(err)
	}
	e := ctx.env
	if e.Int("i") != 42 || e.Str("s") != "hi" || e.Val("f").Float() != 2.5 {
		t.Fatal("scalar round trips failed")
	}
	if len(e.Vals("vs")) != 2 {
		t.Fatal("slice round trip failed")
	}
	if !e.Has("i") || !e.Has("n") || e.Has("nope") {
		t.Fatal("Has broken")
	}
	// The next attempt starts from the arguments alone.
	e.Start(prog)
	if e.Has("i") || e.Int("n") != 42 {
		t.Fatalf("after Start: has i %v, n = %d; want only the argument", e.Has("i"), e.Int("n"))
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

// TestUndeclaredAccessRefused pins what the dependency analyzer's
// soundness rests on: an op body can see only the variables it
// declared, and one that reads, writes or probes any other is refused
// with ErrMalformed when it returns, whatever it returned itself.
func TestUndeclaredAccessRefused(t *testing.T) {
	var body func(e *Env)
	spec := &Spec{Name: "T", Params: []string{"declared", "hidden"}, Plan: func(b *Builder, _ *Env) {
		b.Op(Op{Name: "x", ValReads: []string{"declared"}, Writes: []string{"out"}, Body: func(ctx OpCtx) error {
			body(ctx.Env())
			return nil
		}})
	}}
	prog, ctx := started(spec, storage.Int(1), storage.Int(2))
	for _, c := range []struct {
		name string
		body func(e *Env)
		ok   bool
	}{
		{"compliant", func(e *Env) { e.SetInt("out", e.Int("declared")); e.SetInt("out", e.Int("out")+1) }, true},
		{"read", func(e *Env) { e.SetInt("out", e.Int("hidden")) }, false},
		{"write", func(e *Env) { e.SetInt("sneaky", 1) }, false},
		{"write of a read", func(e *Env) { e.SetInt("declared", 3) }, false},
		{"has", func(e *Env) { _ = e.Has("hidden") }, false},
	} {
		body = c.body
		err := prog.Op(0).Run(ctx)
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrMalformed)) {
			t.Errorf("%s: Run = %v, want refused %v with ErrMalformed", c.name, err, !c.ok)
		}
	}
	if got := ctx.env.Int("declared"); got != 1 {
		t.Errorf("refused write landed: declared = %d", got)
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
// alias too — and $i only for the tail beyond the named prefix
// (NewOrder's order lines start at $6, after six named parameters).
// Arguments are not outputs: a Program's output order holds only the
// variables its operations write.
func TestBindAliasRule(t *testing.T) {
	ycsbRead := &Spec{Name: "YCSBRead", Params: []string{"k"}}
	env := ycsbRead.Bind([]storage.Value{storage.Int(42)})
	if env.Int("k") != 42 || env.Has("$0") {
		t.Fatalf("one named argument: k = %v, has $0 = %v; want 42 and no alias", env.Val("k"), env.Has("$0"))
	}

	newOrder := &Spec{Name: "NewOrder", Params: []string{"w", "d", "c", "ol_cnt", "entry", "rbk"}}
	args := make([]storage.Value, 6+3*2)
	for i := range args {
		args[i] = storage.Int(int64(100 + i))
	}
	env = newOrder.Bind(args)
	for i, name := range newOrder.Params {
		if env.Int(name) != int64(100+i) || env.Has(Positional(i)) {
			t.Fatalf("parameter %d: %s = %v, has %s = %v", i, name, env.Val(name), Positional(i), env.Has(Positional(i)))
		}
	}
	for i := len(newOrder.Params); i < len(args); i++ {
		if !env.Has(Positional(i)) || env.Int(Positional(i)) != int64(100+i) {
			t.Fatalf("tail argument %d not bound under %s", i, Positional(i))
		}
	}
	if env.Has(Positional(len(args))) || env.Has("$06") || env.Has("$+6") {
		t.Fatal("a name that is no argument's resolves")
	}

	// Past the precomputed alias names the rule is the same.
	long := make([]storage.Value, len(positional)+2)
	env = (&Spec{Name: "Variadic"}).Bind(long)
	if !env.Has("$0") || !env.Has("$65") || env.Has("$66") {
		t.Fatalf("parameterless spec: $0 %v, $65 %v, $66 %v", env.Has("$0"), env.Has("$65"), env.Has("$66"))
	}

	one := &Spec{Name: "One", Params: []string{"k"}, Plan: func(b *Builder, _ *Env) {
		b.Op(Op{Name: "w", KeyReads: []string{"k", "$1"}, Writes: []string{"y", "x"}, Body: nopBody})
	}}
	prog, ctx := started(one, storage.Int(1), storage.Int(2))
	if names, vars := ctx.env.Outputs(); strings.Join(names, ",") != "x,y" || len(vars) != 2 {
		t.Fatalf("output order %v, want x,y", names)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}
