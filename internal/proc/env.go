package proc

import (
	"fmt"
	"slices"
	"strings"

	"thedb/internal/storage"
)

// Env is a transaction's variable environment: procedure arguments
// plus every variable produced by its operations. Values are scalars
// (storage.Value) or small collections (slices) for range-read
// results.
//
// In checked mode the environment verifies that each operation only
// touches the variables it declared, which is how tests guarantee the
// honesty of the declared dependency information the analyzer relies
// on.
type Env struct {
	vals map[string]any

	// reads counts lookups (Get, Has, enumeration): Spec.Compile
	// compares it across a Plan call.
	reads int

	// checked-mode state
	checking  bool
	mayRead   map[string]bool
	mayWrite  map[string]bool
	violation error
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{vals: make(map[string]any)} }

// Clone returns a deep-enough copy: the map is copied, values are
// shared (they are treated as immutable).
func (e *Env) Clone() *Env {
	e.reads++
	c := NewEnv()
	for k, v := range e.vals {
		c.vals[k] = v
	}
	return c
}

// Set stores v under name.
func (e *Env) Set(name string, v any) {
	if e.checking && !e.mayWrite[name] {
		e.violate("write", name)
	}
	e.vals[name] = v
}

// Get returns the raw value stored under name, which must exist.
func (e *Env) Get(name string) any {
	if e.checking && !e.mayRead[name] {
		e.violate("read", name)
	}
	e.reads++
	v, ok := e.vals[name]
	if !ok {
		panic(fmt.Sprintf("proc: undefined variable %q", name))
	}
	return v
}

// Has reports whether name is defined.
func (e *Env) Has(name string) bool {
	e.reads++
	_, ok := e.vals[name]
	return ok
}

// Val returns the storage.Value stored under name.
func (e *Env) Val(name string) storage.Value {
	v, ok := e.Get(name).(storage.Value)
	if !ok {
		panic(fmt.Sprintf("proc: variable %q is not a Value", name))
	}
	return v
}

// Int returns the integer stored under name.
func (e *Env) Int(name string) int64 { return e.Val(name).Int() }

// Float returns the float stored under name.
func (e *Env) Float(name string) float64 { return e.Val(name).Float() }

// Str returns the string stored under name.
func (e *Env) Str(name string) string { return e.Val(name).Str() }

// SetVal stores a scalar value.
func (e *Env) SetVal(name string, v storage.Value) { e.Set(name, v) }

// SetInt stores an integer scalar.
func (e *Env) SetInt(name string, v int64) { e.Set(name, storage.Int(v)) }

// SetFloat stores a float scalar.
func (e *Env) SetFloat(name string, v float64) { e.Set(name, storage.Float(v)) }

// SetStr stores a string scalar.
func (e *Env) SetStr(name string, v string) { e.Set(name, storage.Str(v)) }

// Vals returns the slice of values stored under name (range-read
// outputs).
func (e *Env) Vals(name string) []storage.Value {
	v, ok := e.Get(name).([]storage.Value)
	if !ok {
		panic(fmt.Sprintf("proc: variable %q is not a []Value", name))
	}
	return v
}

// SetVals stores a slice of values.
func (e *Env) SetVals(name string, v []storage.Value) { e.Set(name, v) }

// Var is one defined variable as Sorted enumerates it.
type Var struct {
	Name string
	V    any
}

// Sorted appends every defined variable to dst in name order — the
// deterministic enumeration the network result encoding relies on —
// and allocates nothing when dst has room. It bypasses checked mode:
// enumeration happens after the transaction has run, when the
// declared-access discipline no longer applies.
func (e *Env) Sorted(dst []Var) []Var {
	e.reads++
	first := len(dst)
	for k, v := range e.vals {
		dst = append(dst, Var{k, v})
	}
	slices.SortFunc(dst[first:], func(a, b Var) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

// Each calls fn for every defined variable in sorted name order.
func (e *Env) Each(fn func(name string, v any)) {
	for _, v := range e.Sorted(make([]Var, 0, len(e.vals))) {
		fn(v.Name, v.V)
	}
}

// beginOp enters checked mode for one operation; endOp leaves it.
// Arguments and already-defined variables outside the declared sets
// stay inaccessible, so an undeclared dependency is caught the first
// time a body sneaks a read.
func (e *Env) beginOp(op *Op, params []string) {
	e.checking = true
	e.mayRead = make(map[string]bool, len(op.KeyReads)+len(op.ValReads)+len(op.Writes))
	e.mayWrite = make(map[string]bool, len(op.Writes))
	for _, v := range op.KeyReads {
		e.mayRead[v] = true
	}
	for _, v := range op.ValReads {
		e.mayRead[v] = true
	}
	for _, v := range op.Writes {
		// An op may read back what it wrote within its own body.
		e.mayRead[v] = true
		e.mayWrite[v] = true
	}
	e.violation = nil
	_ = params
}

func (e *Env) endOp() error {
	e.checking = false
	v := e.violation
	e.violation = nil
	return v
}

func (e *Env) violate(kind, name string) {
	if e.violation == nil {
		e.violation = fmt.Errorf("proc: undeclared %s of variable %q", kind, name)
	}
}

// CheckOp runs fn with access checking restricted to op's declared
// variable sets, returning an error on any undeclared access. Used by
// the analyzer's verification mode and by tests.
func (e *Env) CheckOp(op *Op, fn func() error) error {
	e.beginOp(op, nil)
	err := fn()
	if verr := e.endOp(); verr != nil {
		return verr
	}
	return err
}
