package proc

import (
	"fmt"
	"slices"

	"thedb/internal/storage"
)

// Env is a transaction's variables, one Slot per name of its Program's
// symbol table (DESIGN.md §3.2): slot i < len(args) holds argument i, the
// variables the operations write follow in name order (the Program's
// output order), then any name an operation declares that nothing
// binds. An engine's worker owns one Env and refills it per attempt.
//
// Where a name resolves depends on who asks. A Plan sees the arguments
// alone. An operation body (Op.Run) sees only the names its operation
// declared: any other read, write or Has is recorded, answered with
// nothing, and the operation refused with ErrMalformed when the body
// returns. The caller of a finished transaction sees every name of the
// Program.
type Env struct {
	spec  *Spec
	prog  *Program // nil while the Plan runs
	nargs int
	slots []Slot
	op    *Op // the operation whose body is running

	// undeclared is op's first access outside its declarations.
	undeclared struct{ kind, name string }

	// reads counts lookups: Spec.Compile compares it across a Plan call.
	reads int
}

// Slot is one variable, unboxed: a scalar V, or a List when IsList.
// Set is false until something binds it in the current attempt.
type Slot struct {
	V      storage.Value
	List   []storage.Value
	IsList bool
	Set    bool
}

// NewEnv returns an environment with no arguments, enough to expand a
// Plan that reads none (for inspecting dependency graphs via
// Spec.Instantiate).
func NewEnv() *Env { return new(Env) }

// Reset empties e and binds args to it for one call of s, as the Plan
// sees them: argument i is named Params[i], or $i beyond them.
func (e *Env) Reset(s *Spec, args []storage.Value) {
	e.slots = slices.Grow(e.slots[:0], len(args))[:len(args)]
	for i, a := range args {
		e.slots[i] = Slot{V: a, Set: true}
	}
	e.spec, e.prog, e.op, e.nargs, e.undeclared.kind = s, nil, nil, len(args), ""
}

// Start lays e out for one attempt of p, which was compiled for e's
// arguments: they stay bound, every other variable is unset.
func (e *Env) Start(p *Program) {
	if p.nargs != e.nargs {
		panic(fmt.Sprintf("proc: %s compiled for %d arguments, bound with %d", p.Spec.Name, p.nargs, e.nargs))
	}
	e.prog, e.op = p, nil
	e.slots = slices.Grow(e.slots[:e.nargs], len(p.names))[:e.nargs+len(p.names)]
	clear(e.slots[e.nargs:])
}

// lookup resolves name to its slot, or -1. Inside an operation only its
// declarations count, and a miss is recorded as an undeclared access of
// the given kind.
func (e *Env) lookup(kind, name string) int {
	e.reads++
	if op := e.op; op != nil {
		for _, d := range op.vars {
			if d.name == name && (d.write || kind != "write") {
				return int(d.slot)
			}
		}
		if e.undeclared.kind == "" {
			e.undeclared.kind, e.undeclared.name = kind, name
		}
		return -1
	}
	switch {
	case kind == "write":
		panic(fmt.Sprintf("proc: write of %q outside an operation", name))
	case e.prog != nil:
		return e.prog.slot(name)
	case e.spec != nil:
		return argSlot(e.spec.Params, e.nargs, name)
	}
	return -1
}

// get returns the variable name for a read wanting a list or a scalar.
// An undefined variable is a bug in the procedure and panics; an
// undeclared one reads as the zero Slot, the refusal pending.
func (e *Env) get(name string, list bool) Slot {
	i := e.lookup("read", name)
	if i < 0 && e.op != nil {
		return Slot{}
	}
	if i < 0 || !e.slots[i].Set || e.slots[i].IsList != list {
		panic(fmt.Sprintf("proc: undefined variable %q (as a list: %v)", name, list))
	}
	return e.slots[i]
}

func (e *Env) set(name string, s Slot) {
	if i := e.lookup("write", name); i >= 0 {
		e.slots[i] = s
	}
}

// Has reports whether name is defined.
func (e *Env) Has(name string) bool {
	i := e.lookup("Has", name)
	return i >= 0 && e.slots[i].Set
}

// Val returns the scalar stored under name.
func (e *Env) Val(name string) storage.Value { return e.get(name, false).V }

// Int returns the integer stored under name.
func (e *Env) Int(name string) int64 { return e.Val(name).Int() }

// Str returns the string stored under name.
func (e *Env) Str(name string) string { return e.Val(name).Str() }

// Vals returns the list stored under name (range-read outputs).
func (e *Env) Vals(name string) []storage.Value { return e.get(name, true).List }

// SetVal stores a scalar value.
func (e *Env) SetVal(name string, v storage.Value) { e.set(name, Slot{V: v, Set: true}) }

// SetInt stores an integer scalar.
func (e *Env) SetInt(name string, v int64) { e.SetVal(name, storage.Int(v)) }

// SetVals stores a list of values.
func (e *Env) SetVals(name string, v []storage.Value) {
	e.set(name, Slot{List: v, IsList: true, Set: true})
}

// Outputs returns the Program's output order — the variables its
// operations write, in name order — as names and their slots, side by
// side, without copying: what a RESULT carries. A slot no operation
// set in this run is not Set. The caller must not modify either.
//
//thedb:noalloc
func (e *Env) Outputs() (names []string, vars []Slot) {
	if e.prog == nil {
		return nil, nil
	}
	p := e.prog
	return p.names[:p.nout], e.slots[p.nargs : p.nargs+p.nout]
}

// Each calls fn for every set output, in name order, with its value
// boxed: a storage.Value, or a []storage.Value for a list.
func (e *Env) Each(fn func(name string, v any)) {
	names, vars := e.Outputs()
	for i, s := range vars {
		switch {
		case !s.Set:
		case s.IsList:
			fn(names[i], s.List)
		default:
			fn(names[i], s.V)
		}
	}
}
