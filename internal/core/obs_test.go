package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"thedb/internal/fault"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestEventSiteZeroAllocsDisabled pins the disabled-path contract:
// with Options.Recorder nil (the default) an event site is a single
// nil check and must never allocate. A regression here taxes every
// transaction of every unobserved run.
func TestEventSiteZeroAllocsDisabled(t *testing.T) {
	e := NewEngine(storage.NewCatalog(), Options{Workers: 1})
	w := e.Worker(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		w.event(obs.KCommit, 1, 2)
	}); allocs != 0 {
		t.Fatalf("disabled event site allocates %.1f per call, want 0", allocs)
	}
}

// TestEventSiteZeroAllocsEnabled: the enabled path is wait-free and
// allocation-free too — recording into the ring must not allocate.
func TestEventSiteZeroAllocsEnabled(t *testing.T) {
	e := NewEngine(storage.NewCatalog(), Options{Workers: 1, Recorder: obs.NewRecorder(1, 64)})
	w := e.Worker(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		w.event(obs.KCommit, 1, 2)
	}); allocs != 0 {
		t.Fatalf("enabled event site allocates %.1f per call, want 0", allocs)
	}
}

// TestCommitRecordsEvent: a committed transaction leaves a KCommit
// event carrying its worker, epoch and commit timestamp.
func TestCommitRecordsEvent(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "KV",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("KV")
	tab.Put(1, storage.Tuple{storage.Int(5)}, 0)

	rec := obs.NewRecorder(1, 64)
	e := NewEngine(cat, Options{Protocol: Healing, Workers: 1, Recorder: rec})
	w := e.Worker(0)
	if err := w.Transact(func(ctx proc.OpCtx) error {
		row, _, err := ctx.Read("KV", 1, []int{0})
		if err != nil {
			return err
		}
		return ctx.Write("KV", 1, []int{0}, []storage.Value{storage.Int(row[0].Int() + 1)})
	}); err != nil {
		t.Fatalf("transact: %v", err)
	}
	var commit *obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KCommit {
			ev := ev
			commit = &ev
		}
	}
	if commit == nil {
		t.Fatal("no KCommit event recorded")
	}
	if commit.Worker != 0 {
		t.Errorf("commit attributed to worker %d, want 0", commit.Worker)
	}
	if commit.A != w.lastTS {
		t.Errorf("commit ts payload = %d, want %d", commit.A, w.lastTS)
	}
	if commit.Epoch == 0 {
		t.Errorf("commit event has zero epoch")
	}
}

// TestErrContendedDumpNamesProtocolCheckpoints drives the degradation
// ladder to exhaustion with the recorder on and checks the acceptance
// contract: the dump is a merged, time-ordered interleaving that
// names the worker, the epoch, and each protocol checkpoint the
// doomed transaction crossed — every escalation rung and the final
// contended abort.
func TestErrContendedDumpNamesProtocolCheckpoints(t *testing.T) {
	const budget = 3
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "BALANCE",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("BALANCE")
	tab.Put(1, storage.Tuple{storage.Int(0)}, 0)

	sched := fault.NewSchedule(7, 1)
	sched.Inject(fault.PreValidation, fault.ActRestart, 1.0)

	rec := obs.NewRecorder(1, 256)
	e := NewEngine(cat, Options{
		Protocol:    Healing,
		Workers:     1,
		Chaos:       sched,
		RetryBudget: budget,
		Recorder:    rec,
	})
	e.MustRegister(&proc.Spec{
		Name: "ReadOne",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "read", Body: func(ctx proc.OpCtx) error {
				_, _, err := ctx.Read("BALANCE", 1, nil)
				return err
			}})
		},
	})
	if _, err := e.Worker(0).Run("ReadOne"); !errors.Is(err, ErrContended) {
		t.Fatalf("err = %v, want ErrContended", err)
	}

	var sb strings.Builder
	rec.DumpWith(&sb, func(id int) string {
		if tab := cat.TableByID(id); tab != nil {
			return tab.Schema().Name
		}
		return ""
	})
	out := sb.String()
	for _, want := range []string{"w0", "epoch="} { // the worker is named; every line carries the epoch
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// The ladder's shape is TestLadderPolicies' to pin; here each of
	// its hops must be named, in time order, and then the abort.
	rungs := e.rungs
	var steps []string
	for i := 1; i < len(rungs); i++ {
		steps = append(steps, fmt.Sprintf("ladder-escalate proto %d -> %d", rungs[i-1].proto, rungs[i].proto))
	}
	steps = append(steps, fmt.Sprintf("abort reason=contended attempts=%d", len(rungs)*budget))
	rest := out
	for _, step := range steps {
		i := strings.Index(rest, step)
		if i < 0 {
			t.Fatalf("dump missing %q, or out of time order:\n%s", step, out)
		}
		rest = rest[i:]
	}
}

// TestEpochAndSealEventsRecorded: the advancer's ring captures epoch
// bumps, and with durability on, seal and sync outcomes.
func TestEpochAndSealEventsRecorded(t *testing.T) {
	cat := storage.NewCatalog()
	rec := obs.NewRecorder(1, 64)
	e := NewEngine(cat, Options{Workers: 1, Recorder: rec})
	for i := 0; i < 3; i++ {
		e.epoch.Advance()
	}
	var advances int
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KEpochAdvance {
			advances++
			if ev.Worker != obs.EpochActor {
				t.Errorf("epoch advance attributed to worker %d, want EpochActor", ev.Worker)
			}
			if ev.A != uint64(ev.Epoch) {
				t.Errorf("epoch advance payload %d != epoch %d", ev.A, ev.Epoch)
			}
		}
	}
	if advances != 3 {
		t.Fatalf("recorded %d epoch advances, want 3", advances)
	}
}
