package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// dtEngine builds a started DT engine over n zeroed counters in table
// C, with procedures Incr (one counter, Home its key), IncrBoth (two
// counters, Home both keys) and FailAfterWrite (writes its counter,
// then aborts).
func dtEngine(t *testing.T, workers, n int) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	tab := cat.MustCreateTable(storage.Schema{
		Name:    "C",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	for k := 0; k < n; k++ {
		tab.Put(storage.Key(k), storage.Tuple{storage.Int(0)}, 0)
	}
	e := NewEngine(cat, Options{Protocol: DT, Workers: workers, Interleave: true, EpochInterval: time.Millisecond})
	incr := func(name string) proc.Op {
		return proc.Op{Name: "incr" + name, KeyReads: []string{name}, Body: func(ctx proc.OpCtx) error {
			k := storage.Key(ctx.Env().Int(name))
			row, _, err := ctx.Read("C", k, []int{0})
			if err != nil {
				return err
			}
			return ctx.Write("C", k, []int{0}, []storage.Value{storage.Int(row[0].Int() + 1)})
		}}
	}
	keys := func(args []storage.Value) []int {
		home := make([]int, len(args))
		for i, a := range args {
			home[i] = int(a.Int())
		}
		return home
	}
	e.MustRegister(&proc.Spec{Name: "Incr", Params: []string{"k"}, Home: keys,
		Plan: func(b *proc.Builder, _ *proc.Env) { b.Op(incr("k")) }})
	e.MustRegister(&proc.Spec{Name: "IncrBoth", Params: []string{"a", "b"}, Home: keys,
		Plan: func(b *proc.Builder, _ *proc.Env) { b.Op(incr("a")); b.Op(incr("b")) }})
	e.MustRegister(&proc.Spec{Name: "FailAfterWrite", Params: []string{"k"}, Home: keys,
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(incr("k"))
			b.Op(proc.Op{Name: "boom", Body: func(proc.OpCtx) error { return proc.UserAbort("boom") }})
		}})
	e.Start()
	t.Cleanup(func() { _ = e.Stop() })
	return e
}

func counter(e *Engine, k storage.Key) int64 {
	tab, _ := e.Catalog().Table("C")
	rec, _ := tab.Peek(k)
	return rec.Tuple()[0].Int()
}

// checkStripesFree reports every DT stripe still held.
func checkStripesFree(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.stripes {
		if !e.stripes[i].TryLock() {
			t.Errorf("stripe %d still held", i)
			continue
		}
		e.stripes[i].Unlock()
	}
}

// runAll drives fn on every worker and fails the test if they have not
// all returned within 30s: a stripe taken out of order wedges them.
func runAll(t *testing.T, e *Engine, fn func(w *Worker) error) {
	t.Helper()
	var wg sync.WaitGroup
	var done atomic.Int64
	errCh := make(chan error, len(e.workers))
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := fn(w); err != nil {
				errCh <- err
			}
			done.Add(1)
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("workers wedged: %d of %d finished", done.Load(), len(e.workers))
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestDTSerialPerPartition: with no validation, the stripes alone keep
// interleaved increments of one counter from losing updates.
func TestDTSerialPerPartition(t *testing.T) {
	const workers, txns, parts = 4, 500, 4
	e := dtEngine(t, workers, parts)
	runAll(t, e, func(w *Worker) error {
		for i := 0; i < txns; i++ {
			if _, err := w.Run("Incr", storage.Int(int64(i%parts))); err != nil {
				return err
			}
		}
		return nil
	})
	for k := storage.Key(0); k < parts; k++ {
		if got, want := counter(e, k), int64(workers*txns/parts); got != want {
			t.Errorf("counter %d = %d, want %d (partition serialization broken)", k, got, want)
		}
	}
	checkStripesFree(t, e)
}

// TestDTCrossPartitionAtomicity: two-partition transactions stay
// atomic, and half the workers name their partitions in the opposite
// order — taking stripes in ascending order is the only thing that
// keeps the two halves from wedging.
func TestDTCrossPartitionAtomicity(t *testing.T) {
	const workers, txns = 4, 400
	e := dtEngine(t, workers, 2)
	runAll(t, e, func(w *Worker) error {
		a, b := storage.Int(0), storage.Int(1)
		if w.ID()%2 == 1 {
			a, b = b, a
		}
		for i := 0; i < txns; i++ {
			if _, err := w.Run("IncrBoth", a, b); err != nil {
				return err
			}
		}
		return nil
	})
	if c0, c1 := counter(e, 0), counter(e, 1); c0 != c1 || c0 != workers*txns {
		t.Fatalf("counters = %d, %d, want both %d", c0, c1, workers*txns)
	}
	checkStripesFree(t, e)
}

// TestDTRollbackRestoresPreImages: writes are buffered until commit,
// so a transaction that writes and then aborts leaves the committed
// value it overwrote in place and releases its stripes.
func TestDTRollbackRestoresPreImages(t *testing.T) {
	e := dtEngine(t, 1, 1)
	w := e.Worker(0)
	if _, err := w.Run("Incr", storage.Int(0)); err != nil {
		t.Fatal(err)
	}
	var abort *proc.AbortError
	if _, err := w.Run("FailAfterWrite", storage.Int(0)); !errors.As(err, &abort) {
		t.Fatalf("FailAfterWrite: %v, want a user abort", err)
	}
	if got := counter(e, 0); got != 1 {
		t.Fatalf("counter = %d after the abort, want 1", got)
	}
	if m := w.Metrics(); m.Committed.Load() != 1 || m.Aborted.Load() != 1 {
		t.Fatalf("committed/aborted = %d/%d, want 1/1", m.Committed.Load(), m.Aborted.Load())
	}
	checkStripesFree(t, e)
}

// TestDTUndeclaredAccessRefused: DT runs bodies through proc.Op.Run
// like the other protocols, so a body that reads, writes or probes a
// variable its operation did not declare is refused with
// proc.ErrMalformed, and what it wrote before is not installed.
func TestDTUndeclaredAccessRefused(t *testing.T) {
	for _, sneak := range []struct {
		kind string
		do   func(e *proc.Env)
	}{
		{"read", func(e *proc.Env) { _ = e.Int("hidden") }},
		{"write", func(e *proc.Env) { e.SetInt("k", 9) }},
		{"Has", func(e *proc.Env) { _ = e.Has("hidden") }},
	} {
		e := dtEngine(t, 1, 2)
		e.MustRegister(&proc.Spec{Name: "Sneaky", Params: []string{"k", "hidden"},
			Home: func([]storage.Value) []int { return []int{1} },
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{Name: "bump", KeyReads: []string{"k"}, Body: func(ctx proc.OpCtx) error {
					err := ctx.Write("C", storage.Key(ctx.Env().Int("k")), []int{0}, []storage.Value{storage.Int(5)})
					sneak.do(ctx.Env())
					return err
				}})
			}})
		if _, err := e.Worker(0).Run("Sneaky", storage.Int(1), storage.Int(2)); !errors.Is(err, proc.ErrMalformed) {
			t.Errorf("undeclared %s: %v, want ErrMalformed", sneak.kind, err)
		}
		if got := counter(e, 1); got != 0 {
			t.Errorf("undeclared %s: the refused transaction's write stayed: %d", sneak.kind, got)
		}
		checkStripesFree(t, e)
	}
}

// TestDTUnknownProcedure: a name no procedure is registered under is
// refused before any stripe is taken.
func TestDTUnknownProcedure(t *testing.T) {
	e := dtEngine(t, 1, 1)
	if _, err := e.Worker(0).Run("Nope"); err == nil {
		t.Fatal("unknown procedure accepted")
	}
	checkStripesFree(t, e)
}

// TestDTDuplicateHomeLockedOnce: a Home naming one partition several
// times, directly or through keys that share a stripe, locks that
// stripe once instead of deadlocking on itself.
func TestDTDuplicateHomeLockedOnce(t *testing.T) {
	e := dtEngine(t, 1, 1)
	e.MustRegister(&proc.Spec{Name: "DupHome",
		Home: func([]storage.Value) []int { return []int{0, 0, stripeCount, 3 * stripeCount} },
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "read", Body: func(ctx proc.OpCtx) error {
				_, _, err := ctx.Read("C", 0, nil)
				return err
			}})
		}})
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
		t.Fatal("duplicate partition keys deadlocked")
	}
	checkStripesFree(t, e)
}

// TestDTStripeWaitDoesNotPinEpoch: a worker blocked on a stripe has not
// begun its transaction, so the epoch keeps advancing, the visible
// floor does not stay behind on its account and the stuck-epoch
// watchdog never trips for it; a worker on another stripe commits
// meanwhile, and the blocked one commits once the stripe is free.
func TestDTStripeWaitDoesNotPinEpoch(t *testing.T) {
	e := dtEngine(t, 2, 8)
	lag := uint32(e.opts.WatchdogLag)
	e.stripes[3].Lock()
	blocked := make(chan error, 1)
	go func() {
		_, err := e.Worker(1).Run("Incr", storage.Int(3))
		blocked <- err
	}()
	from := e.Epoch().Current()
	for e.Epoch().Current() < from+2*lag {
		if _, err := e.Worker(0).Run("Incr", storage.Int(4)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-blocked:
		t.Fatalf("Incr on a held stripe returned early: %v", err)
	default:
	}
	if cur, floor := e.Epoch().Current(), e.Epoch().VisibleFloor(); floor+1 < cur {
		t.Errorf("visible floor %d trails current epoch %d: a stripe waiter pins it", floor, cur)
	}
	e.stripes[3].Unlock()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if trips := e.Epoch().Trips(1); trips != 0 {
		t.Errorf("watchdog tripped %d times for the stripe waiter", trips)
	}
	if got := counter(e, 3); got != 1 {
		t.Errorf("counter 3 = %d, want 1", got)
	}
	checkStripesFree(t, e)
}
