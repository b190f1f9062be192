package core

import (
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
		return &w.e.adhocRungs[0]
	}
	return &w.e.rungs[0]
}

// TestLadderPolicies pins the protocol table: for every engine
// protocol, stored-procedure and ad-hoc, the rung sequence and every
// policy field of every rung. Each engine then runs one transaction
// through a scripted restart storm, so the sequence the engine actually
// descends — escalation events, the fallback counter, the policy the
// committing attempt ran under — is checked against the same table.
func TestLadderPolicies(t *testing.T) {
	const restarts = 3
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
	yield := func(p *policy) { p.yield = true }
	cases := []struct {
		opts  Options
		adhoc bool
		want  []policy
	}{
		{Options{Protocol: Healing}, false, []policy{heal}},
		{Options{Protocol: Healing}, true, []policy{occ}},
		{Options{Protocol: OCC}, false, []policy{occ}},
		{Options{Protocol: OCC}, true, []policy{occ}},
		{Options{Protocol: Silo}, false, []policy{silo}},
		{Options{Protocol: Silo}, true, []policy{silo}},
		{Options{Protocol: TPL}, false, []policy{tplRW}},
		{Options{Protocol: TPL}, true, []policy{tplRW}},
		// Hybrid: one OCC attempt, then 2PL until commit.
		{Options{Protocol: Hybrid}, false, []policy{occ, tplMeta}},
		{Options{Protocol: Hybrid}, true, []policy{occ}},
		{Options{Protocol: OCCNoValidate}, false, []policy{occNV}},
		{Options{Protocol: OCCNoValidate}, true, []policy{occNV}},
		{Options{Protocol: SiloNoValidate}, false, []policy{siloNV}},
		{Options{Protocol: SiloNoValidate}, true, []policy{siloNV}},
		{Options{Protocol: DT}, false, []policy{dt}},
		{Options{Protocol: DT}, true, []policy{dt}},
		// Table 4 ablations and the interleaving emulation touch one
		// field each, on the rungs that have it.
		{Options{Protocol: Healing, NoAccessCache: true}, false,
			[]policy{with(heal, func(p *policy) { p.heal = false })}},
		{Options{Protocol: Healing, NoReadCopies: true}, false,
			[]policy{with(heal, func(p *policy) { p.readCopies = false })}},
		{Options{Protocol: Healing, NoAccessCache: true, NoReadCopies: true}, true, []policy{occ}},
		{Options{Protocol: Healing, Interleave: true}, false, []policy{with(heal, yield)}},
		{Options{Protocol: Hybrid, Interleave: true}, false, []policy{with(occ, yield), with(tplMeta, yield)}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v/adhoc=%v", tc.opts.Protocol, tc.adhoc)
		for _, f := range []struct {
			name string
			on   bool
		}{{"nocache", tc.opts.NoAccessCache}, {"nocopies", tc.opts.NoReadCopies}, {"interleave", tc.opts.Interleave}} {
			if f.on {
				name += "/" + f.name
			}
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
			for visit := 0; visit < restarts; visit++ {
				sched.ScriptAt(0, fault.PreValidation, visit, fault.ActRestart)
			}
			rec := obs.NewRecorder(1, 256)
			opts := tc.opts
			opts.Workers, opts.Chaos, opts.Recorder = 1, sched, rec
			e := NewEngine(cat, opts)

			got := e.rungs
			if tc.adhoc {
				got = e.adhocRungs
			}
			if len(got) != len(tc.want) {
				t.Fatalf("rungs = %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("rung %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}

			// The first attempts restart, so the transaction takes
			// every hop its rungs have and commits on the last one.
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
			if err != nil {
				t.Fatalf("err = %v, want commit", err)
			}
			m := w.Metrics()
			if m.Restarts.Load() != restarts || m.Committed.Load() != 1 || m.Aborted.Load() != 0 {
				t.Errorf("restarts/committed/aborted = %d/%d/%d, want %d/1/0",
					m.Restarts.Load(), m.Committed.Load(), m.Aborted.Load(), restarts)
			}
			if int(m.HealingFallbacks.Load()) != len(tc.want)-1 {
				t.Errorf("fallbacks = %d, want %d", m.HealingFallbacks.Load(), len(tc.want)-1)
			}
			if got := sched.Count(fault.PreValidation, fault.ActRestart); got != restarts {
				t.Errorf("injected restarts = %d, want %d", got, restarts)
			}
			if last := tc.want[len(tc.want)-1]; w.txn.pol != last {
				t.Errorf("committing attempt ran under %+v, want %+v", w.txn.pol, last)
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
// ad-hoc OCC transaction (§4.8) — and both take their validation locks
// blocking.
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
	run := func(t *testing.T, txns int, second func(w *Worker) error) {
		cat := storage.NewCatalog()
		for _, s := range []storage.Schema{{Name: "LATE", Rank: 1}, {Name: "EARLY", Rank: 0}} {
			s.Columns = []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}
			cat.MustCreateTable(s)
			tab, _ := cat.Table(s.Name)
			tab.Put(1, storage.Tuple{storage.Int(0)}, 0)
		}
		// Interleave yields between execution and validation, so the two
		// workers' lock windows overlap from the first transactions on.
		e := NewEngine(cat, Options{Protocol: Healing, Workers: 2, Interleave: true})
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
					if err := drive(e.Worker(i)); err != nil {
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
		run(t, 5000, func(w *Worker) error { return w.Transact(bump) })
	})
}
