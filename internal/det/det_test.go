package det

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

func counterEngine(t *testing.T, partitions, workers, keysPerPart int) (*Engine, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	tab := cat.MustCreateTable(storage.Schema{
		Name:    "C",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	for k := 0; k < partitions*keysPerPart; k++ {
		tab.Put(storage.Key(k), storage.Tuple{storage.Int(0)}, 0)
	}
	e := NewEngine(cat, partitions, workers)
	e.MustRegister(&Proc{
		Spec: &proc.Spec{
			Name:   "Incr",
			Params: []string{"k"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name:     "rmw",
					KeyReads: []string{"k"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						row, ok, err := ctx.Read("C", storage.Key(e.Int("k")), nil)
						if err != nil {
							return err
						}
						if !ok {
							return proc.UserAbort("no such counter")
						}
						return ctx.Write("C", storage.Key(e.Int("k")), []int{0},
							[]storage.Value{storage.Int(row[0].Int() + 1)})
					},
				})
			},
		},
		Home: func(args []storage.Value) []int {
			return []int{int(args[0].Int()) % partitions}
		},
	})
	e.MustRegister(&Proc{
		Spec: &proc.Spec{
			Name:   "IncrBoth",
			Params: []string{"a", "b"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				for _, name := range []string{"a", "b"} {
					name := name
					b.Op(proc.Op{
						Name:     "rmw" + name,
						KeyReads: []string{name},
						Body: func(ctx proc.OpCtx) error {
							e := ctx.Env()
							row, _, err := ctx.Read("C", storage.Key(e.Int(name)), nil)
							if err != nil {
								return err
							}
							return ctx.Write("C", storage.Key(e.Int(name)), []int{0},
								[]storage.Value{storage.Int(row[0].Int() + 1)})
						},
					})
				}
			},
		},
		Home: func(args []storage.Value) []int {
			return []int{int(args[0].Int()) % partitions, int(args[1].Int()) % partitions}
		},
	})
	e.MustRegister(&Proc{
		Spec: &proc.Spec{
			Name:   "FailAfterWrite",
			Params: []string{"k"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name:     "write",
					KeyReads: []string{"k"},
					Body: func(ctx proc.OpCtx) error {
						return ctx.Write("C", storage.Key(ctx.Env().Int("k")), []int{0},
							[]storage.Value{storage.Int(999)})
					},
				})
				b.Op(proc.Op{
					Name: "boom",
					Body: func(proc.OpCtx) error { return proc.UserAbort("boom") },
				})
			},
		},
		Home: func(args []storage.Value) []int {
			return []int{int(args[0].Int()) % partitions}
		},
	})
	return e, tab
}

func TestSerialPerPartition(t *testing.T) {
	const (
		partitions = 4
		workers    = 4
		txns       = 500
	)
	e, tab := counterEngine(t, partitions, workers, 1)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			for i := 0; i < txns; i++ {
				// Everyone increments every partition's counter.
				if _, err := w.Run("Incr", storage.Int(int64(i%partitions))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for k := 0; k < partitions; k++ {
		rec, _ := tab.Peek(storage.Key(k))
		want := int64(workers * txns / partitions)
		if got := rec.Tuple()[0].Int(); got != want {
			t.Errorf("counter %d = %d, want %d (partition serialization broken)", k, got, want)
		}
	}
}

// TestCrossPartitionAtomicity: cross-partition transactions stay
// atomic, and half the workers name their partitions in the opposite
// order — Run's sort is the only thing that makes every worker lock
// partition 0 before partition 1, so without it the two halves wedge.
func TestCrossPartitionAtomicity(t *testing.T) {
	const (
		partitions = 2
		workers    = 4
		txns       = 400
	)
	e, tab := counterEngine(t, partitions, workers, 1)
	var progress [workers]atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			a, b := storage.Int(0), storage.Int(1)
			if wi%2 == 1 {
				a, b = b, a
			}
			for i := 0; i < txns; i++ {
				if _, err := w.Run("IncrBoth", a, b); err != nil {
					t.Error(err)
					return
				}
				progress[wi].Add(1)
			}
		}(wi)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		var got []int64
		for i := range progress {
			got = append(got, progress[i].Load())
		}
		t.Fatalf("workers wedged: transactions finished per worker %v of %d", got, txns)
	}
	r0, _ := tab.Peek(0)
	r1, _ := tab.Peek(1)
	if r0.Tuple()[0].Int() != r1.Tuple()[0].Int() {
		t.Fatalf("cross-partition counters diverged: %d vs %d",
			r0.Tuple()[0].Int(), r1.Tuple()[0].Int())
	}
	if got := r0.Tuple()[0].Int(); got != workers*txns {
		t.Fatalf("counter = %d, want %d", got, workers*txns)
	}
}

func TestRollbackRestoresPreImages(t *testing.T) {
	e, tab := counterEngine(t, 1, 1, 1)
	w := e.Worker(0)
	if _, err := w.Run("Incr", storage.Int(0)); err != nil {
		t.Fatal(err)
	}
	_, err := w.Run("FailAfterWrite", storage.Int(0))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected user abort, got %v", err)
	}
	rec, _ := tab.Peek(0)
	if got := rec.Tuple()[0].Int(); got != 1 {
		t.Fatalf("counter = %d after rollback, want 1", got)
	}
	m := w.Metrics()
	if m.Committed.Load() != 1 || m.Aborted.Load() != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestUnknownProcedure(t *testing.T) {
	e, _ := counterEngine(t, 1, 1, 1)
	if _, err := e.Worker(0).Run("Nope"); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

func TestPartitionCount(t *testing.T) {
	e, _ := counterEngine(t, 3, 1, 1)
	if e.Partitions() != 3 {
		t.Fatalf("partitions = %d", e.Partitions())
	}
}

func TestDedupHome(t *testing.T) {
	// A Home returning duplicates must not double-lock (deadlock).
	e, tab := counterEngine(t, 2, 1, 1)
	e.MustRegister(&Proc{
		Spec: &proc.Spec{
			Name: "DupHome",
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name: "noop",
					Body: func(ctx proc.OpCtx) error {
						_, _, err := ctx.Read("C", 0, nil)
						return err
					},
				})
			},
		},
		Home: func([]storage.Value) []int { return []int{0, 0, 0} },
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.Worker(0).Run("DupHome")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate partition set deadlocked")
	}
	_ = tab
}

// TestUndeclaredAccessRefused: THEDB-DT runs every body through
// proc.Op.Run like the core engine, so a body that reads, writes or
// probes a variable its operation did not declare is refused with
// proc.ErrMalformed, and what it wrote before is rolled back.
func TestUndeclaredAccessRefused(t *testing.T) {
	for _, sneak := range []struct {
		kind string
		do   func(e *proc.Env)
	}{
		{"read", func(e *proc.Env) { _ = e.Int("hidden") }},
		{"write", func(e *proc.Env) { e.SetInt("k", 9) }},
		{"Has", func(e *proc.Env) { _ = e.Has("hidden") }},
	} {
		e, tab := counterEngine(t, 1, 1, 2)
		e.MustRegister(&Proc{
			Spec: &proc.Spec{
				Name:   "Sneaky",
				Params: []string{"k", "hidden"},
				Plan: func(b *proc.Builder, _ *proc.Env) {
					b.Op(proc.Op{Name: "bump", KeyReads: []string{"k"}, Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						err := ctx.Write("C", storage.Key(e.Int("k")), []int{0}, []storage.Value{storage.Int(5)})
						sneak.do(e)
						return err
					}})
				},
			},
			Home: func([]storage.Value) []int { return []int{0} },
		})
		_, err := e.Worker(0).Run("Sneaky", storage.Int(1), storage.Int(2))
		if !errors.Is(err, proc.ErrMalformed) {
			t.Errorf("undeclared %s: %v, want ErrMalformed", sneak.kind, err)
		}
		if rec, _ := tab.Peek(1); rec.Tuple()[0].Int() != 0 {
			t.Errorf("undeclared %s: the refused transaction's write stayed: %d", sneak.kind, rec.Tuple()[0].Int())
		}
	}
}
