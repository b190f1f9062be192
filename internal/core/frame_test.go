package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"thedb/internal/fault"
	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestMalformedProcedureRefused: a procedure Program.Validate rejects
// is refused with proc.ErrMalformed on every path that would run it,
// every time it is tried, and the worker goes on to run a good
// transaction. (Before the compile step validated, a nil body was a
// nil-func panic inside readPhase and a parameter-writing op silently
// re-pointed the dependency graph.)
func TestMalformedProcedureRefused(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1})
	e.MustRegister(&proc.Spec{
		Name: "NilBody",
		Plan: func(b *proc.Builder, _ *proc.Env) { b.Op(proc.Op{Name: "hole"}) },
	})
	e.MustRegister(&proc.Spec{
		Name:   "WritesParam",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "clobber", Writes: []string{"k"}, Body: func(proc.OpCtx) error { return nil }})
		},
	})
	w := e.Worker(0)
	for _, name := range []string{"NilBody", "WritesParam"} {
		for try := 0; try < 2; try++ {
			if _, err := w.Run(name, storage.Int(1)); !errors.Is(err, proc.ErrMalformed) {
				t.Fatalf("Run(%s) try %d: %v, want ErrMalformed", name, try, err)
			}
			if _, err := w.RunSnapshot(name, storage.Int(1)); !errors.Is(err, proc.ErrMalformed) {
				t.Fatalf("RunSnapshot(%s) try %d: %v, want ErrMalformed", name, try, err)
			}
		}
	}
	if _, err := w.Run("Put", storage.Int(5), storage.Int(50)); err != nil {
		t.Fatal(err)
	}
	if env, err := w.Run("Get", storage.Int(5)); err != nil || env.Int("v") != 50 {
		t.Fatalf("good transaction after the refusals: %v", err)
	}
}

// TestUndeclaredAccessRefused: a body that reads, writes or probes a
// variable its operation did not declare is refused with
// proc.ErrMalformed on every path that runs bodies here — the validated
// read phase, a healing re-execution, a snapshot transaction — without
// a retry, and the worker goes on to run a good transaction.
// (TestDTUndeclaredAccessRefused pins it under DT's stripes.)
func TestUndeclaredAccessRefused(t *testing.T) {
	for _, sneak := range []struct {
		kind string
		do   func(e *proc.Env)
	}{
		{"read", func(e *proc.Env) { _ = e.Int("src") }},
		{"write", func(e *proc.Env) { e.SetVal("dst", storage.Int(dave)) }},
		{"Has", func(e *proc.Env) { _ = e.Has("src") }},
	} {
		// Sneaky reads the client of src, then that client's balance,
		// and sneaks only when the client is Dave: from the start once
		// the client has changed, or when healing re-executes readDst
		// because it changed under the transaction.
		e := bankEngine(t, Options{Protocol: Healing, Workers: 1})
		e.MustRegister(&proc.Spec{Name: "Sneaky", Params: []string{"src"}, Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "readClient", KeyReads: []string{"src"}, Writes: []string{"dst"}, Body: func(ctx proc.OpCtx) error {
				row, _, err := ctx.Read("CLIENT", storage.Key(ctx.Env().Int("src")), []int{0})
				if err == nil {
					ctx.Env().SetVal("dst", row[0])
				}
				return err
			}})
			b.Op(proc.Op{Name: "readDst", KeyReads: []string{"dst"}, Writes: []string{"bal"}, Body: func(ctx proc.OpCtx) error {
				e := ctx.Env()
				row, _, err := ctx.Read("BALANCE", storage.Key(e.Int("dst")), []int{0})
				if err == nil {
					e.SetVal("bal", row[0])
				}
				if e.Int("dst") == dave {
					sneak.do(e)
				}
				return err
			}})
		}})
		e.MustRegister(&proc.Spec{Name: "Blind", Params: []string{"src"}, Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "sneak", Body: func(ctx proc.OpCtx) error { sneak.do(ctx.Env()); return nil }})
		}})
		w := e.Worker(0)
		refused := func(path string, err error) {
			t.Helper()
			if !errors.Is(err, proc.ErrMalformed) {
				t.Errorf("%s, undeclared %s: %v, want ErrMalformed", path, sneak.kind, err)
			}
		}
		if env, err := w.Run("Sneaky", storage.Int(amy)); err != nil || env.Int("bal") != 1200 {
			t.Fatalf("honest run: %v", err)
		}

		spec, _ := e.Spec("Sneaky")
		env := spec.Bind([]storage.Value{storage.Int(amy)})
		txn := newTxn(w, spec.Instantiate(env), env, firstRung(w, false))
		if err := txn.readPhase(); err != nil {
			t.Fatal(err)
		}
		externalCommit(t, e, "CLIENT", amy, 0, storage.Int(dave), storage.MakeTS(1, 1))
		err := txn.validateAndCommit()
		if err != nil {
			txn.finish(false)
		}
		refused("healing re-execution", err)
		if w.m.Heals.Load() != 1 {
			t.Errorf("undeclared %s: %d heals, want the one that re-executed readDst", sneak.kind, w.m.Heals.Load())
		}

		restarts := w.m.Restarts.Load()
		_, err = w.Run("Sneaky", storage.Int(amy))
		refused("validated", err)
		_, err = w.RunSnapshot("Blind", storage.Int(amy))
		refused("snapshot", err)
		if got := w.m.Restarts.Load(); got != restarts {
			t.Errorf("undeclared %s: a refusal was retried (%d restarts)", sneak.kind, got-restarts)
		}
		if _, err := w.Run("Transfer", storage.Int(dan), storage.Int(20)); err != nil {
			t.Fatalf("good transaction after the refusals: %v", err)
		}
	}
}

// countingSpec reads n keys of KV. Its Plan counts its own executions;
// when shaped, n comes from the "n" argument (an argument-shaped plan),
// otherwise the plan looks at no argument and reads fixed keys.
func countingSpec(name string, plans *atomic.Int64, shaped bool, fixed int) *proc.Spec {
	return &proc.Spec{
		Name:   name,
		Params: []string{"n"},
		Plan: func(b *proc.Builder, args *proc.Env) {
			plans.Add(1)
			n := fixed
			if shaped {
				n = int(args.Int("n"))
			}
			for i := 0; i < n; i++ {
				out := fmt.Sprintf("r%d", i)
				key := storage.Key(i)
				b.Op(proc.Op{
					Name:   out,
					Writes: []string{out},
					Body: func(ctx proc.OpCtx) error {
						_, _, err := ctx.Read("KV", key, nil)
						ctx.Env().SetInt(out, 1)
						return err
					},
				})
			}
		},
	}
}

// TestStaticPlanRunsOnce: a Plan that reads no argument runs exactly
// once however many transactions, on however many workers, use it,
// and the metric says so.
func TestStaticPlanRunsOnce(t *testing.T) {
	e := kvEngine(t, Options{Protocol: Healing, Workers: 2})
	var plans atomic.Int64
	e.MustRegister(countingSpec("Static", &plans, false, 3))
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := w.Run("Static", storage.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.RunSnapshot("Static", storage.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(e.Worker(wi))
	}
	wg.Wait()
	if got := plans.Load(); got != 1 {
		t.Errorf("static Plan ran %d times over 2,000 transactions on 2 workers, want 1", got)
	}
	if got := e.LiveMetrics().PlanExpansions; got != 1 {
		t.Errorf("PlanExpansions = %d, want 1", got)
	}

	// A call with another number of arguments cannot share that
	// Program — the arguments fill the first slots — so it expands
	// again, uncached, and the cached arity keeps its Program.
	w := e.Worker(0)
	for i := 0; i < 2; i++ {
		if env, err := w.Run("Static", storage.Int(1), storage.Int(2)); err != nil || env.Int("r2") != 1 || env.Int("$1") != 2 {
			t.Fatalf("two-argument call: %v", err)
		}
	}
	if _, err := w.Run("Static", storage.Int(1)); err != nil {
		t.Fatal(err)
	}
	if got := plans.Load(); got != 3 {
		t.Errorf("static Plan ran %d times, want once more per call of another arity (3)", got)
	}
}

// TestShapedPlanRunsOncePerTransaction: a Plan that reads an argument
// runs once per transaction — not once per attempt — and each
// transaction gets the shape of its own arguments.
func TestShapedPlanRunsOncePerTransaction(t *testing.T) {
	sched := fault.NewSchedule(1, 1)
	sched.ScriptAt(0, fault.CommitApply, 0, fault.ActRestart)
	e := kvEngine(t, Options{Protocol: Healing, Workers: 1, Chaos: sched})
	var plans atomic.Int64
	e.MustRegister(countingSpec("Shaped", &plans, true, 0))
	w := e.Worker(0)

	env, err := w.Run("Shaped", storage.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.m.Snapshot().Restarts; got != 1 {
		t.Fatalf("restarts = %d, want the one scripted", got)
	}
	if got := plans.Load(); got != 1 {
		t.Errorf("Plan ran %d times for one transaction of two attempts, want 1", got)
	}
	if env.Has("r3") {
		t.Error("3-op shape produced a 4th output")
	}
	env, err = w.Run("Shaped", storage.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if !env.Has("r4") || env.Has("r5") {
		t.Error("second transaction did not run the 5-op shape of its own arguments")
	}
	if got, m := plans.Load(), w.m.Snapshot().PlanExpansions; got != 2 || m != 2 {
		t.Errorf("after two transactions: Plan ran %d times, PlanExpansions = %d, want 2 and 2", got, m)
	}
}

// bigSpec is a transaction with a footprint of size+3 records: a scan
// of [0, size), a delete, a pointer read whose target a write then
// follows (key-dependent, so a change to the pointer heals with a
// membership update), a read of a missing key (a dummy) and, on
// demand, an application abort at the very end.
func bigSpec(size int, victim storage.Key) *proc.Spec {
	return &proc.Spec{
		Name:   "Big",
		Params: []string{"abort"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "scan", Writes: []string{"sum"}, Body: func(ctx proc.OpCtx) error {
				var sum int64
				err := ctx.Scan("KV", 0, storage.Key(size-1), 0, func(_ storage.Key, row storage.Tuple) bool {
					sum += row[0].Int()
					return true
				})
				ctx.Env().SetInt("sum", sum)
				return err
			}})
			b.Op(proc.Op{Name: "delete", Body: func(ctx proc.OpCtx) error {
				if _, ok, _ := ctx.Read("KV", victim, nil); !ok {
					return nil
				}
				return ctx.Delete("KV", victim)
			}})
			b.Op(proc.Op{Name: "pointer", Writes: []string{"p"}, Body: func(ctx proc.OpCtx) error {
				row, _, err := ctx.Read("KV", 0, nil)
				if err == nil {
					ctx.Env().SetVal("p", row[0])
				}
				return err
			}})
			b.Op(proc.Op{Name: "follow", KeyReads: []string{"p"}, Body: func(ctx proc.OpCtx) error {
				return ctx.Write("KV", storage.Key(ctx.Env().Int("p")), []int{0}, []storage.Value{storage.Int(7)})
			}})
			b.Op(proc.Op{Name: "miss", Body: func(ctx proc.OpCtx) error {
				_, _, err := ctx.Read("KV", 1<<40, nil)
				return err
			}})
			b.Op(proc.Op{Name: "bail", ValReads: []string{"abort"}, Body: func(ctx proc.OpCtx) error {
				if ctx.Env().Int("abort") != 0 {
					return proc.UserAbort("asked to")
				}
				return nil
			}})
		},
	}
}

// TestWorkerFrameReuse: the worker's one frame carries nothing from a
// transaction into the next. A large transaction is healed, aborted by
// the application, restarted by chaos and committed on one worker;
// then a one-read transaction runs on the same frame. Checked: the
// second's footprint as the oracle saw it, every worker-owned slice
// across its whole capacity, every record's pin count, and that the
// record GC reclaims what the first deleted while the worker idles.
// Runs below and above keepElems, the two reset paths.
func TestWorkerFrameReuse(t *testing.T) {
	for _, size := range []int{keepElems / 2, 4 * keepElems} {
		t.Run(fmt.Sprintf("footprint=%d", size), func(t *testing.T) {
			const victim = 5000
			sched := fault.NewSchedule(1, 1)
			// Visits of CommitApply: 0 the Put, 1 the hand-driven commit,
			// 2 the restarted attempt, 3 its retry.
			sched.ScriptAt(0, fault.CommitApply, 2, fault.ActRestart)
			orc := oracle.NewRecorder(1)
			e := kvEngine(t, Options{Protocol: Healing, Workers: 1, Chaos: sched, Oracle: orc})
			spec := bigSpec(size, victim)
			e.MustRegister(spec)
			w := e.Worker(0)
			tab, _ := e.Catalog().Table("KV")
			for k := 0; k < size; k++ {
				tab.Put(storage.Key(k), storage.Tuple{storage.Int(int64(k + 1))}, 0)
			}
			if _, err := w.Run("Put", storage.Int(victim), storage.Int(1)); err != nil {
				t.Fatal(err)
			}

			// Healed: the pointer moves between read phase and validation.
			env := spec.Bind([]storage.Value{storage.Int(0)})
			prog, _, err := spec.Compile(env)
			if err != nil {
				t.Fatal(err)
			}
			txn := newTxn(w, prog, env, firstRung(w, false))
			if err := txn.readPhase(); err != nil {
				t.Fatal(err)
			}
			externalCommit(t, e, "KV", 0, 0, storage.Int(2), storage.MakeTS(1, 1))
			if err := txn.validateAndCommit(); err != nil {
				t.Fatal(err)
			}
			if w.m.Snapshot().Heals == 0 {
				t.Fatal("the large transaction did not heal")
			}
			// Aborted by the application after touching everything.
			var ab *proc.AbortError
			if _, err := w.Run("Big", storage.Int(1)); !errors.As(err, &ab) {
				t.Fatalf("abort variant: %v", err)
			}
			// Restarted by chaos at commit, then committed.
			if _, err := w.Run("Big", storage.Int(0)); err != nil {
				t.Fatal(err)
			}
			if got := w.m.Snapshot().Restarts; got != 1 {
				t.Fatalf("restarts = %d, want the one scripted", got)
			}

			if _, err := w.Run("Get", storage.Int(3)); err != nil {
				t.Fatal(err)
			}
			commits := orc.Commits()
			last := commits[len(commits)-1]
			if len(last.Reads) != 1 || last.Reads[0].K.Key != 3 || len(last.Writes) != 0 {
				t.Errorf("one-read transaction's footprint: reads %+v writes %+v", last.Reads, last.Writes)
			}

			f := &w.txn
			if f.prog != nil || f.env != nil || f.cur != nil || len(f.rw.byRec) != 0 {
				t.Errorf("idle frame still points at its last attempt: prog %v env %v cur %v byRec %d",
					f.prog != nil, f.env != nil, f.cur != nil, len(f.rw.byRec))
			}
			if len(f.locked)+len(f.rw.elems)+len(f.rw.scans)+len(f.runs) != 0 {
				t.Errorf("idle frame not truncated: locked %d elems %d scans %d runs %d",
					len(f.locked), len(f.rw.elems), len(f.rw.scans), len(f.runs))
			}
			for i, el := range f.locked[:cap(f.locked)] {
				if el != nil {
					t.Fatalf("locked[%d] of %d still holds an element", i, cap(f.locked))
				}
			}
			for i, el := range f.rw.elems[:cap(f.rw.elems)] {
				if el != nil {
					t.Fatalf("elems[%d] of %d still holds an element", i, cap(f.rw.elems))
				}
			}
			for i, sa := range f.rw.scans[:cap(f.rw.scans)] {
				if sa != nil {
					t.Fatalf("scans[%d] of %d still holds a scan", i, cap(f.rw.scans))
				}
			}
			for i, run := range f.runs[:cap(f.runs)] {
				if run.op != nil || run.accesses != nil {
					t.Fatalf("runs[%d] of %d still holds an access cache", i, cap(f.runs))
				}
			}
			if size > keepElems && cap(f.rw.elems) > keepElems {
				t.Errorf("a footprint of %d left %d element slots on the worker", size, cap(f.rw.elems))
			}

			checkReleased(t, e.Catalog())
			e.GC().Collect()
			if _, ok := tab.Peek(victim); ok {
				t.Error("the deleted record was not reclaimed while the worker idled")
			}
			if _, ok := tab.Peek(1 << 40); ok {
				t.Error("the read-miss dummy was not reclaimed while the worker idled")
			}
		})
	}
}
