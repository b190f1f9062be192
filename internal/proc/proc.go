// Package proc defines THEDB's stored-procedure intermediate
// representation and the static dependency analyzer.
//
// The paper extracts a program dependency graph from each stored
// procedure with an LLVM pass (§3). Here procedures are written
// against a small declarative IR instead: a procedure is a sequence
// of operations, each declaring the environment variables it consumes
// (split into key inputs and value inputs) and the variables it
// produces. The analyzer infers exactly the paper's two dependency
// classes from variable flow:
//
//   - op B is key-dependent on op A when A produces a variable that B
//     uses to compute an accessing key;
//   - op B is value-dependent on op A when A produces a variable that
//     B uses as a non-key input.
//
// The engine (package core) executes operation bodies through the
// OpCtx interface, recording every record access in the thread-local
// access cache so that the healing phase can re-run an individual
// operation either in cached mode (value-dependent restoration: reuse
// the recorded record addresses, skip index lookups) or in
// re-execution mode (key-dependent restoration: fresh index lookups,
// read/write-set membership update).
package proc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"thedb/internal/storage"
)

// Op is one operation instance of a procedure invocation. IDs are
// assigned in program order and serve as the paper's bookmarks.
type Op struct {
	// ID is the operation's bookmark: its position in program order.
	ID int

	// Name labels the operation for diagnostics and graph dumps
	// (the paper uses source line numbers).
	Name string

	// KeyReads lists environment variables this operation uses to
	// compute accessing keys (or scan bounds).
	KeyReads []string

	// ValReads lists environment variables used as non-key inputs
	// (update values, predicates, arithmetic).
	ValReads []string

	// Writes lists environment variables this operation produces.
	Writes []string

	// Body performs the operation's record accesses and computation
	// through ctx. It must be deterministic given the environment
	// variables it declared; it can see no others (Run).
	Body func(ctx OpCtx) error

	// The analyzer fills these: the declared names resolved to slots,
	// and the dependency edges.
	vars        []opVar
	keyChildren []*Op
	valChildren []*Op
	parents     int // number of incoming dependency edges
}

// opVar is one name an operation declared, resolved to its Env slot.
type opVar struct {
	name  string
	slot  int32
	write bool
}

// Run executes o's body in ctx with the environment scoped to o's
// declared variables. A body that touched any other is refused with
// ErrMalformed, whatever it returned: the dependency graph healing
// repairs by is only as sound as the declarations. Every engine runs
// every body through Run.
func (o *Op) Run(ctx OpCtx) error {
	e := ctx.Env()
	e.op = o
	err := o.Body(ctx)
	e.op = nil
	if u := e.undeclared; u.kind != "" {
		e.undeclared.kind = ""
		return fmt.Errorf("%w: proc %s: op %d %q: undeclared %s of %q", ErrMalformed, e.prog.Spec.Name, o.ID, o.Name, u.kind, u.name)
	}
	return err
}

// KeyChildren returns the operations key-dependent on op.
func (o *Op) KeyChildren() []*Op { return o.keyChildren }

// ValChildren returns the operations value-dependent on op.
func (o *Op) ValChildren() []*Op { return o.valChildren }

// OpCtx is the execution context the engine hands to operation
// bodies. Every record access made through it is registered in the
// calling transaction's read/write set and in the operation's access
// cache entry.
type OpCtx interface {
	// Env returns the transaction's variable environment.
	Env() *Env

	// Read fetches the record stored under key, returning its row
	// image and whether the record exists (is visible). Reading a
	// non-existent key registers a dummy record in the read set so
	// that a later insert by a concurrent transaction is detected
	// (§4.7.1). cols lists the columns the caller will consume; nil
	// means all columns. Column tracking drives false-invalidation
	// elimination (§4.5).
	Read(table string, key storage.Key, cols []int) (storage.Tuple, bool, error)

	// Write buffers an update of the listed columns. The write is
	// installed only at commit.
	Write(table string, key storage.Key, cols []int, vals []storage.Value) error

	// Insert buffers creation of a new record. It fails the
	// transaction if a visible record already exists under key.
	Insert(table string, key storage.Key, tuple storage.Tuple) error

	// Delete buffers removal of the record under key.
	Delete(table string, key storage.Key) error

	// Scan visits visible records with lo <= key <= hi in key order;
	// fn returning false stops early. limit > 0 caps the rows
	// visited. The scanned leaf versions are recorded for phantom
	// validation (§4.7.2).
	Scan(table string, lo, hi storage.Key, limit int, fn func(key storage.Key, row storage.Tuple) bool) error

	// ScanSec visits visible records via a secondary index in
	// secondary-key order over [lo, hi].
	ScanSec(table, index string, lo, hi string, limit int, fn func(pk storage.Key, row storage.Tuple) bool) error
}

// ScanMin returns the first visible record in [lo, hi] — the "oldest
// entry" probe. It is a Scan with limit 1, so it is exactly as
// phantom-safe as one under every OpCtx implementation.
func ScanMin(ctx OpCtx, table string, lo, hi storage.Key) (key storage.Key, row storage.Tuple, found bool, err error) {
	err = ctx.Scan(table, lo, hi, 1, func(k storage.Key, r storage.Tuple) bool {
		key, row, found = k, r, true
		return false
	})
	return key, row, found, err
}

// AbortError is returned (or wrapped) by operation bodies to abort
// the transaction for application reasons (user rollback, integrity
// violation). The engine does not retry user aborts.
type AbortError struct{ Reason string }

func (e *AbortError) Error() string { return "transaction aborted: " + e.Reason }

// UserAbort builds an application-initiated abort error.
func UserAbort(reason string) error { return &AbortError{Reason: reason} }

// Spec is a stored procedure definition. Plan expands the procedure
// into its operation list for a given argument vector; the expansion
// may depend on argument values (loop bounds), never on database
// state, which keeps the dependency graph static per invocation as
// required by §3.
//
// Plan must be pure (DESIGN.md §6): one that reads no argument runs
// once and every worker shares its Program, any other runs once per
// transaction, not per attempt. So a body may close over nothing Plan
// computed except values derived from the arguments Plan read — no
// Plan-local state a body mutates, never args itself (a body's
// environment is OpCtx.Env). Do not copy a Spec that has run.
type Spec struct {
	Name   string
	Params []string
	Plan   func(b *Builder, args *Env)

	// Home, optional, names the partition keys an invocation touches,
	// from its arguments alone. Only THEDB-DT (core.DT) reads it; a
	// procedure without one locks every partition there.
	Home func(args []storage.Value) []int

	// static is the Program of a Plan that read no argument, shaped
	// marks a Plan seen reading one; mu serialises until either is set.
	mu     sync.Mutex
	static atomic.Pointer[Program]
	shaped atomic.Bool
}

// ErrMalformed is what Program.Validate's refusals wrap.
var ErrMalformed = errors.New("malformed procedure")

// Builder collects the operations of one invocation in program order.
type Builder struct {
	ops []*Op
}

// Op appends an operation. Returns the operation for tests that want
// to inspect it.
func (b *Builder) Op(op Op) *Op {
	o := op
	o.ID = len(b.ops)
	if o.Name == "" {
		o.Name = fmt.Sprintf("op%d", o.ID)
	}
	b.ops = append(b.ops, &o)
	return b.ops[len(b.ops)-1]
}

// positional holds the names of the first positional arguments ($0,
// $1, ...), so naming the common short argument tails formats nothing.
var positional = func() (names [64]string) {
	for i := range names {
		names[i] = "$" + strconv.Itoa(i)
	}
	return names
}()

// Positional returns "$i", the name of argument i when i is beyond a
// Spec's Params (the tail a variadic procedure addresses).
func Positional(i int) string {
	if i < len(positional) {
		return positional[i]
	}
	return "$" + strconv.Itoa(i)
}

// argSlot returns the slot of the argument named name in a call with
// nargs arguments to a Spec declaring params, or -1.
func argSlot(params []string, nargs int, name string) int {
	i := slices.Index(params, name)
	if i < 0 && len(name) > 1 && name[0] == '$' {
		if n, err := strconv.Atoi(name[1:]); err == nil && n >= len(params) && n < nargs && Positional(n) == name {
			i = n
		}
	}
	if i >= nargs {
		return -1
	}
	return i
}

// Bind returns a new environment holding args as a Plan sees them:
// argument i under its parameter name when the Spec declares one, and
// under $i only when it does not (i >= len(Params)). The engines bind
// into an Env their worker owns instead (Env.Reset).
func (s *Spec) Bind(args []storage.Value) *Env {
	e := new(Env)
	e.Reset(s, args)
	return e
}

// Instantiate expands the procedure for args and runs the dependency
// analyzer. The returned Program carries the operations and the
// program dependency graph, and is immutable from here on.
func (s *Spec) Instantiate(args *Env) *Program {
	b := &Builder{}
	s.Plan(b, args)
	p := &Program{Spec: s, Ops: b.ops}
	p.analyze(args.nargs)
	return p
}

// Compile returns the validated Program of one invocation (§3's
// compile-time extraction). The first expansion watches whether Plan
// reads args: if not, the plan has one shape and every later call with
// as many arguments, on any worker, gets that Program without running
// Plan; if so, the Spec is expanded on every call. planned reports
// whether this one ran Plan.
func (s *Spec) Compile(args *Env) (p *Program, planned bool, err error) {
	if p = s.static.Load(); p != nil && p.nargs == args.nargs {
		return p, false, nil
	}
	if !s.shaped.Load() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if p = s.static.Load(); p != nil && p.nargs == args.nargs {
			return p, false, nil
		}
	}
	reads := args.reads
	p = s.Instantiate(args)
	if err = p.Validate(); err != nil {
		return nil, true, err
	}
	switch {
	case s.shaped.Load(), s.static.Load() != nil: // argument-shaped, or another arity of a static plan
	case args.reads == reads:
		s.static.Store(p)
	default:
		s.shaped.Store(true)
	}
	return p, true, nil
}
