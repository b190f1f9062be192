package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb/internal/fault"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// firstRung returns the policy a transaction's first attempt runs
// under on w's engine, for tests that drive newTxn by hand.
func firstRung(w *Worker, adhoc bool) *policy {
	if adhoc {
		return &w.e.adhocRungs[0].policy
	}
	return &w.e.rungs[0].policy
}

// TestLadderPolicies pins the protocol table: for every engine
// protocol, stored-procedure and ad-hoc, with and without a retry
// budget, the rung sequence and every policy field of every rung.
// Budgeted ladders are then driven to exhaustion under an
// all-restarts chaos schedule, so the sequence the engine actually
// descends — escalation events, fallback and exhaustion counters, the
// typed ErrContended — is checked against the same table.
func TestLadderPolicies(t *testing.T) {
	const n = 3
	var (
		heal    = policy{proto: Healing, validate: true, heal: true, readCopies: true}
		occ     = policy{proto: OCC, validate: true}
		silo    = policy{proto: Silo, validate: true, writeSetOnly: true}
		tplRW   = policy{proto: TPL, lockAtAccess: true}                  // a 2PL engine: reader/writer locks
		tplMeta = policy{proto: TPL, lockAtAccess: true, metaLocks: true} // a 2PL rung beside optimistic ones
		occNV   = policy{proto: OCCNoValidate}
		siloNV  = policy{proto: SiloNoValidate, writeSetOnly: true}
		dt      = policy{proto: DT, writeSetOnly: true, stripes: true} // siloNV under partition stripes
	)
	with := func(p policy, f func(*policy)) policy { f(&p); return p }
	ladder := func(budget int, ps ...policy) []rung {
		rungs := make([]rung, len(ps))
		for i, p := range ps {
			rungs[i] = rung{policy: p, budget: budget}
		}
		return rungs
	}
	cases := []struct {
		opts  Options
		adhoc bool
		want  []rung
	}{
		{Options{Protocol: Healing}, false, ladder(0, heal)},
		{Options{Protocol: Healing, RetryBudget: n}, false, ladder(n, heal, occ, tplMeta)},
		{Options{Protocol: Healing}, true, ladder(0, occ)},
		{Options{Protocol: Healing, RetryBudget: n}, true, ladder(n, occ, tplMeta)},
		{Options{Protocol: OCC}, false, ladder(0, occ)},
		{Options{Protocol: OCC, RetryBudget: n}, false, ladder(n, occ, tplMeta)},
		{Options{Protocol: OCC}, true, ladder(0, occ)},
		{Options{Protocol: OCC, RetryBudget: n}, true, ladder(n, occ, tplMeta)},
		{Options{Protocol: Silo}, false, ladder(0, silo)},
		{Options{Protocol: Silo, RetryBudget: n}, false, ladder(n, silo, tplMeta)},
		{Options{Protocol: Silo}, true, ladder(0, silo)},
		{Options{Protocol: Silo, RetryBudget: n}, true, ladder(n, silo, tplMeta)},
		{Options{Protocol: TPL}, false, ladder(0, tplRW)},
		{Options{Protocol: TPL, RetryBudget: n}, false, ladder(n, tplRW)},
		{Options{Protocol: TPL}, true, ladder(0, tplRW)},
		{Options{Protocol: TPL, RetryBudget: n}, true, ladder(n, tplRW)},
		// Unbudgeted hybrid: one OCC attempt, then 2PL until commit.
		{Options{Protocol: Hybrid}, false, []rung{{occ, 1}, {tplMeta, 0}}},
		{Options{Protocol: Hybrid, RetryBudget: n}, false, ladder(n, occ, tplMeta)},
		{Options{Protocol: Hybrid}, true, ladder(0, occ)},
		{Options{Protocol: Hybrid, RetryBudget: n}, true, ladder(n, occ, tplMeta)},
		// The no-validate probes never restart: one unbounded rung.
		{Options{Protocol: OCCNoValidate}, false, ladder(0, occNV)},
		{Options{Protocol: OCCNoValidate, RetryBudget: n}, false, ladder(0, occNV)},
		{Options{Protocol: OCCNoValidate, RetryBudget: n}, true, ladder(0, occNV)},
		{Options{Protocol: SiloNoValidate}, false, ladder(0, siloNV)},
		{Options{Protocol: SiloNoValidate, RetryBudget: n}, false, ladder(0, siloNV)},
		{Options{Protocol: SiloNoValidate, RetryBudget: n}, true, ladder(0, siloNV)},
		{Options{Protocol: DT}, false, ladder(0, dt)},
		{Options{Protocol: DT, RetryBudget: n}, false, ladder(0, dt)},
		{Options{Protocol: DT}, true, ladder(0, dt)},
		{Options{Protocol: DT, RetryBudget: n}, true, ladder(0, dt)},
		// Table 4 ablations and the interleaving emulation touch one
		// field each, on the rungs that have it.
		{Options{Protocol: Healing, NoAccessCache: true}, false,
			ladder(0, with(heal, func(p *policy) { p.heal = false }))},
		{Options{Protocol: Healing, NoReadCopies: true}, false,
			ladder(0, with(heal, func(p *policy) { p.readCopies = false }))},
		{Options{Protocol: Healing, NoAccessCache: true, NoReadCopies: true, RetryBudget: n}, true, ladder(n, occ, tplMeta)},
		{Options{Protocol: Healing, RetryBudget: n, Interleave: true}, false, ladder(n,
			with(heal, func(p *policy) { p.yield = true }),
			with(occ, func(p *policy) { p.yield = true }),
			with(tplMeta, func(p *policy) { p.yield = true }))},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v/adhoc=%v/budget=%d", tc.opts.Protocol, tc.adhoc, tc.opts.RetryBudget)
		if tc.opts.NoAccessCache || tc.opts.NoReadCopies || tc.opts.Interleave {
			name += fmt.Sprintf("/nocache=%v,nocopies=%v,interleave=%v", tc.opts.NoAccessCache, tc.opts.NoReadCopies, tc.opts.Interleave)
		}
		t.Run(name, func(t *testing.T) {
			cat := storage.NewCatalog()
			cat.MustCreateTable(storage.Schema{
				Name:    "BALANCE",
				Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
			})
			tab, _ := cat.Table("BALANCE")
			tab.Put(1, storage.Tuple{storage.Int(0)}, 0)

			sched := fault.NewSchedule(3, 1)
			sched.Inject(fault.PreValidation, fault.ActRestart, 1.0)
			rec := obs.NewRecorder(1, 256)
			opts := tc.opts
			opts.Workers, opts.Chaos, opts.Recorder = 1, sched, rec
			e := NewEngine(cat, opts)

			got := e.rungs
			if tc.adhoc {
				got = e.adhocRungs
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ladder = %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("rung %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
			if last := tc.want[len(tc.want)-1]; last.budget == 0 {
				return // the last rung retries forever: nothing to exhaust
			}

			// Every attempt restarts, so the transaction spends each
			// rung's budget, escalates rung by rung, and is shed.
			readOne := func(ctx proc.OpCtx) error {
				_, _, err := ctx.Read("BALANCE", 1, nil)
				return err
			}
			e.MustRegister(&proc.Spec{Name: "ReadOne", Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{Name: "read", Body: readOne})
			}})
			w := e.Worker(0)
			var err error
			if tc.adhoc {
				err = w.Transact(readOne)
			} else {
				_, err = w.Run("ReadOne")
			}
			if !errors.Is(err, ErrContended) {
				t.Fatalf("err = %v, want ErrContended", err)
			}
			attempts := 0
			for _, r := range tc.want {
				attempts += r.budget
			}
			m := w.Metrics()
			if int(m.Restarts.Load()) != attempts {
				t.Errorf("restarts = %d, want %d (every rung's budget)", m.Restarts.Load(), attempts)
			}
			if int(m.HealingFallbacks.Load()) != len(tc.want)-1 {
				t.Errorf("fallbacks = %d, want %d", m.HealingFallbacks.Load(), len(tc.want)-1)
			}
			if m.BudgetExhausted.Load() != 1 || m.Aborted.Load() != 1 || m.Committed.Load() != 0 {
				t.Errorf("exhausted/aborted/committed = %d/%d/%d, want 1/1/0", m.BudgetExhausted.Load(), m.Aborted.Load(), m.Committed.Load())
			}
			if got := sched.Count(fault.PreValidation, fault.ActRestart); int(got) != attempts {
				t.Errorf("injected restarts = %d, want %d", got, attempts)
			}
			var hops [][2]Protocol
			for _, ev := range rec.Events() {
				if ev.Kind == obs.KLadderEscalate {
					hops = append(hops, [2]Protocol{Protocol(ev.A), Protocol(ev.B)})
				}
			}
			if len(hops) != len(tc.want)-1 {
				t.Fatalf("escalation events = %v, want %d of them", hops, len(tc.want)-1)
			}
			for i, h := range hops {
				if h[0] != tc.want[i].proto || h[1] != tc.want[i+1].proto {
					t.Errorf("escalation %d = %v -> %v, want %v -> %v", i, h[0], h[1], tc.want[i].proto, tc.want[i+1].proto)
				}
			}
		})
	}
}

// TestLadderRungsShareOneLockOrder: rungs of different protocols run
// side by side on one engine — a stored procedure healing beside an
// ad-hoc OCC transaction (§4.8), or beside a transaction the ladder
// escalated — and all of them take their validation locks blocking.
// That is only deadlock-free because all of them sort by the engine's
// one order. The two tables below make a second order visible: the
// schema ranks say EARLY validates before LATE, creation (address)
// order says the opposite, so a rung sorting by address alone and a
// rung sorting by rank would each hold the lock the other wants.
func TestLadderRungsShareOneLockOrder(t *testing.T) {
	bump := func(ctx proc.OpCtx) error {
		for _, table := range []string{"LATE", "EARLY"} {
			row, _, err := ctx.Read(table, 1, []int{0})
			if err != nil {
				return err
			}
			if err := ctx.Write(table, 1, []int{0}, []storage.Value{storage.Int(row[0].Int() + 1)}); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(t *testing.T, opts Options, txns int, second func(w *Worker) error) {
		cat := storage.NewCatalog()
		for _, s := range []storage.Schema{{Name: "LATE", Rank: 1}, {Name: "EARLY", Rank: 0}} {
			s.Columns = []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}
			cat.MustCreateTable(s)
			tab, _ := cat.Table(s.Name)
			tab.Put(1, storage.Tuple{storage.Int(0)}, 0)
		}
		// Interleave yields between execution and validation, so the two
		// workers' lock windows overlap from the first transactions on.
		opts.Protocol, opts.Workers, opts.Interleave = Healing, 2, true
		e := NewEngine(cat, opts)
		e.MustRegister(&proc.Spec{Name: "Bump", Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "bump", Body: bump})
		}})
		e.Start()
		defer e.Stop()

		drivers := []func(w *Worker) error{
			func(w *Worker) error { _, err := w.Run("Bump"); return err },
			second,
		}
		var progress [2]atomic.Int64
		errs := make(chan error, len(drivers))
		var wg sync.WaitGroup
		for i, drive := range drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < txns; n++ {
					// A shed transaction is the ladder working, not a failure.
					if err := drive(e.Worker(i)); err != nil && !errors.Is(err, ErrContended) {
						errs <- fmt.Errorf("worker %d txn %d: %w", i, n, err)
						return
					}
					progress[i].Add(1)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers wedged: worker 0 finished %d/%d transactions, worker 1 %d/%d",
				progress[0].Load(), txns, progress[1].Load(), txns)
		}
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		var committed int64
		for i := range drivers {
			committed += e.Worker(i).Metrics().Committed.Load()
		}
		for _, name := range []string{"LATE", "EARLY"} {
			tab, _ := cat.Table(name)
			rec, _ := tab.Peek(1)
			if got := rec.Tuple()[0].Int(); got != committed {
				t.Errorf("%s = %d, want %d (one increment per commit)", name, got, committed)
			}
		}
	}

	t.Run("adhoc", func(t *testing.T) {
		run(t, Options{}, 5000, func(w *Worker) error { return w.Transact(bump) })
	})
	t.Run("escalated", func(t *testing.T) {
		// A budget of one attempt per rung plus a scripted restart on
		// every other validation of worker 1 puts its transactions on
		// the OCC rung while worker 0's stay on Healing.
		const txns = 2000
		sched := fault.NewSchedule(11, 2)
		for visit := 0; visit < 2*txns; visit += 2 {
			sched.ScriptAt(1, fault.PreValidation, visit, fault.ActRestart)
		}
		run(t, Options{RetryBudget: 1, Chaos: sched}, txns, func(w *Worker) error {
			_, err := w.Run("Bump")
			return err
		})
	})
}
