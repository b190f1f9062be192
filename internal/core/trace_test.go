package core

import (
	"testing"
	"time"

	"thedb/internal/fault"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestTraceRecordZeroAllocs pins the acceptance contract on the
// trace-record commit path: arming the scratch trace and offering the
// finished record to the Tracer must not allocate, whether the trace
// is dropped as boring (committed, fast) or copied into the ring
// (aborted). It pins Worker.finishTrace and obs.Tracer.Keep.
func TestTraceRecordZeroAllocs(t *testing.T) {
	e := NewEngine(storage.NewCatalog(), Options{
		Workers: 1,
		Tracer:  obs.NewTracer(16, time.Second),
	})
	w := e.Worker(0)
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		w.beginTrace(start, "T")
		w.finishTrace(obs.TraceCommitted, time.Microsecond, 1)
	}); allocs != 0 {
		t.Errorf("dropped-trace path allocates %.1f per txn, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.beginTrace(start, "T")
		w.finishTrace(obs.TraceAborted, time.Microsecond, 9)
	}); allocs != 0 {
		t.Errorf("retained-trace path allocates %.1f per txn, want 0", allocs)
	}
	total, kept := e.tracer.Stats()
	if total < 2000 || kept < 1000 {
		t.Errorf("tracer stats = (%d, %d), want >= (2000, 1000)", total, kept)
	}
}

// TestTraceHealPassCaptured drives a full traced transaction through a
// genuine healing pass: an op mid-transaction commits a conflicting
// write to a key the transaction already read, so validation fails,
// healing replays the dependent chain, and the trace must carry the
// pass with its restored-operation count. The contention sketch fed
// from the same sites must name the key.
func TestTraceHealPassCaptured(t *testing.T) {
	tr := obs.NewTracer(8, 0)
	cont := obs.NewContention(8)
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, Tracer: tr, Contention: cont})
	w := e.Worker(0)

	// op0 reads the balance, op1 (dependency-free, never restored)
	// simulates a concurrent commit bumping it, op2 writes a
	// value-dependent update. Validation sees op0's read invalidated.
	fired := false
	e.MustRegister(&proc.Spec{
		Name:   "ConflictedIncr",
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "read",
				KeyReads: []string{"k"},
				Writes:   []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					row, _, err := ctx.Read("BALANCE", storage.Key(ctx.Env().Int("k")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("v", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name: "conflict",
				Body: func(ctx proc.OpCtx) error {
					if !fired {
						fired = true
						externalCommit(t, e, "BALANCE", amy, 0, storage.Int(2500), storage.MakeTS(1, 1))
					}
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "write",
				KeyReads: []string{"k"},
				ValReads: []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write("BALANCE", storage.Key(e.Int("k")), []int{0},
						[]storage.Value{storage.Int(e.Int("v") + 1)})
				},
			})
		},
	})

	if _, err := w.Run("ConflictedIncr", storage.Int(amy)); err != nil {
		t.Fatal(err)
	}
	if got := balanceOf(t, e, amy); got != 2501 {
		t.Errorf("amy balance = %d, want 2501 (healed read of 2500, +1)", got)
	}

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1 (healed commit)", len(traces))
	}
	trc := traces[0]
	if trc.ID == 0 {
		t.Error("trace ID is zero (local mint failed)")
	}
	if trc.Proc != "ConflictedIncr" || trc.Worker != 0 {
		t.Errorf("trace identity = (%q, w%d), want (ConflictedIncr, w0)", trc.Proc, trc.Worker)
	}
	if trc.Outcome != obs.TraceCommitted || trc.Attempts != 1 {
		t.Errorf("outcome = %v attempts = %d, want committed after 1 attempt (healed, not restarted)",
			trc.Outcome, trc.Attempts)
	}
	if trc.NPasses != 1 {
		t.Fatalf("n_passes = %d, want 1", trc.NPasses)
	}
	p := trc.Passes[0]
	// Healing restores op0 (replay against the refreshed copy) and its
	// value-dependent child op2.
	if p.Restored != 2 {
		t.Errorf("pass restored %d ops, want 2", p.Restored)
	}
	if p.StartUS < 0 || p.EndUS < p.StartUS {
		t.Errorf("pass offsets [%d..%d] not monotonic", p.StartUS, p.EndUS)
	}
	if trc.TotalUS < trc.ValidateUS+trc.HealUS {
		t.Errorf("total %dus < validate %dus + heal %dus", trc.TotalUS, trc.ValidateUS, trc.HealUS)
	}

	entries := cont.Snapshot()
	if len(entries) == 0 {
		t.Fatal("contention sketch empty after a validation failure + heal")
	}
	balance, _ := e.Catalog().Table("BALANCE")
	top := entries[0]
	if top.Table != balance.ID() || top.Key != amy {
		t.Errorf("hottest key = (table %d, key %d), want (BALANCE=%d, %d)",
			top.Table, top.Key, balance.ID(), amy)
	}
	if top.Fails < 1 || top.Heals < 1 {
		t.Errorf("hot key touches = fails %d heals %d, want >= 1 each", top.Fails, top.Heals)
	}
}

// TestTraceLadderEscalateCorrelatesWithRecorder drives a THEDB-HYBRID
// transaction through a scripted restart storm with both the tracer
// and the flight recorder on, and pins the correlation contract: the
// retained trace reports the commit with its attempt and escalation
// counts, and the recorder's escalation and commit events carry the
// same trace ID.
func TestTraceLadderEscalateCorrelatesWithRecorder(t *testing.T) {
	const restarts = 3
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "BALANCE",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("BALANCE")
	tab.Put(1, storage.Tuple{storage.Int(0)}, 0)

	sched := fault.NewSchedule(7, 1)
	for visit := 0; visit < restarts; visit++ {
		sched.ScriptAt(0, fault.PreValidation, visit, fault.ActRestart)
	}
	// The committing attempt sleeps past the slow threshold, so the
	// trace is retained.
	sched.SetDelay(100 * time.Microsecond)
	sched.ScriptAt(0, fault.PreValidation, restarts, fault.ActDelay)

	rec := obs.NewRecorder(1, 256)
	tr := obs.NewTracer(8, 50*time.Microsecond)
	e := NewEngine(cat, Options{
		Protocol: Hybrid,
		Workers:  1,
		Chaos:    sched,
		Recorder: rec,
		Tracer:   tr,
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
	w := e.Worker(0)
	w.SetTraceContext(0xabcdef01, 37, 1234567890)
	if _, err := w.Run("ReadOne"); err != nil {
		t.Fatalf("err = %v, want commit", err)
	}
	if got := w.Metrics().HealingFallbacks.Load(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	trc := traces[0]
	if trc.ID != 0xabcdef01 {
		t.Errorf("trace ID = %#x, want caller-supplied 0xabcdef01", trc.ID)
	}
	if trc.QueueUS != 37 || trc.StartNS != 1234567890 {
		t.Errorf("queue/start = (%d, %d), want caller-supplied (37, 1234567890)",
			trc.QueueUS, trc.StartNS)
	}
	if trc.Outcome != obs.TraceCommitted || Protocol(trc.Proto) != TPL {
		t.Errorf("outcome/proto = %v/%v, want committed/%v", trc.Outcome, Protocol(trc.Proto), TPL)
	}
	if trc.Attempts != restarts+1 || trc.Escalations != 1 {
		t.Errorf("attempts/escalations = (%d, %d), want (%d, 1): one OCC attempt, then 2PL",
			trc.Attempts, trc.Escalations, restarts+1)
	}

	slot, id := w.LastTrace()
	if slot != 0 || id != 0xabcdef01 {
		t.Errorf("LastTrace = (%d, %#x), want (0, 0xabcdef01)", slot, id)
	}

	var escalates, commits int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KLadderEscalate:
			escalates++
			if Protocol(ev.A) != OCC || Protocol(ev.B) != TPL {
				t.Errorf("escalation %v -> %v, want %v -> %v", Protocol(ev.A), Protocol(ev.B), OCC, TPL)
			}
		case obs.KCommit:
			commits++
		default:
			continue
		}
		if ev.Trace != trc.ID {
			t.Errorf("%v event trace = %#x, want %#x", ev.Kind, ev.Trace, trc.ID)
		}
	}
	if escalates != 1 || commits != 1 {
		t.Errorf("recorder saw %d escalations, %d commits; want 1, 1", escalates, commits)
	}
}

// TestTraceUserAbortRetained: an application abort is interesting by
// definition and must be kept with the aborted outcome.
func TestTraceUserAbortRetained(t *testing.T) {
	tr := obs.NewTracer(8, time.Second)
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, Tracer: tr})
	e.MustRegister(&proc.Spec{
		Name: "AlwaysAbort",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "nope", Body: func(ctx proc.OpCtx) error {
				return proc.UserAbort("nope")
			}})
		},
	})
	if _, err := e.Worker(0).Run("AlwaysAbort"); err == nil {
		t.Fatal("expected user abort")
	}
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].Outcome != obs.TraceAborted {
		t.Fatalf("traces = %+v, want one aborted", traces)
	}
	if traces[0].Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (user aborts do not retry)", traces[0].Attempts)
	}
}

// TestTraceBoringCommitDropped: with a high slow threshold a clean
// commit must pass through untraced — counted, never retained.
func TestTraceBoringCommitDropped(t *testing.T) {
	tr := obs.NewTracer(8, time.Hour)
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, Tracer: tr})
	w := e.Worker(0)
	if _, err := w.Run("Transfer", storage.Int(amy), storage.Int(20)); err != nil {
		t.Fatal(err)
	}
	if traces := tr.Snapshot(); len(traces) != 0 {
		t.Fatalf("retained %d traces of a boring fast commit, want 0", len(traces))
	}
	total, kept := tr.Stats()
	if total != 1 || kept != 0 {
		t.Errorf("stats = (%d, %d), want (1, 0)", total, kept)
	}
	if slot, id := w.LastTrace(); slot != -1 || id == 0 {
		t.Errorf("LastTrace = (%d, %#x), want (-1, nonzero): dropped but minted", slot, id)
	}
}
