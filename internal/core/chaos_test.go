package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"thedb/internal/fault"
	"thedb/internal/obs"
	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// dumpEvents logs the flight recorder's merged, time-ordered event
// interleaving — the post-mortem attached to every chaos failure.
func dumpEvents(t *testing.T, rec *obs.Recorder, cat *storage.Catalog) {
	t.Helper()
	var sb strings.Builder
	rec.DumpWith(&sb, func(id int) string {
		if tab := cat.TableByID(id); tab != nil {
			return tab.Schema().Name
		}
		return fmt.Sprintf("table#%d", id)
	})
	t.Logf("flight recorder (%d events recorded, %d dropped):\n%s",
		rec.Recorded(), rec.Dropped(), sb.String())
}

// auditSpec builds a read-only procedure summing all account
// balances. A serializable engine must show it the invariant total at
// every commit, no matter how hostile the schedule.
func auditSpec(accounts int) *proc.Spec {
	return &proc.Spec{
		Name: "Audit",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:   "sum",
				Writes: []string{"total"},
				Body: func(ctx proc.OpCtx) error {
					var sum int64
					for k := 1; k <= accounts; k++ {
						row, _, err := ctx.Read("BALANCE", storage.Key(k), []int{0})
						if err != nil {
							return err
						}
						sum += row[0].Int()
					}
					ctx.Env().SetInt("total", sum)
					return nil
				},
			})
		},
	}
}

// churnSpec deletes key from CHURN when it is visible and inserts it
// with value v otherwise. Its Home is the key.
func churnSpec() *proc.Spec {
	return &proc.Spec{
		Name:   "Churn",
		Params: []string{"key", "v"},
		Home:   func(args []storage.Value) []int { return []int{int(args[0].Int())} },
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "churn", KeyReads: []string{"key"}, ValReads: []string{"v"}, Body: func(ctx proc.OpCtx) error {
				key := storage.Key(ctx.Env().Int("key"))
				_, vis, err := ctx.Read("CHURN", key, nil)
				if err != nil {
					return err
				}
				if vis {
					return ctx.Delete("CHURN", key)
				}
				return ctx.Insert("CHURN", key, storage.Tuple{ctx.Env().Val("v")})
			}})
		},
	}
}

// TestChaosTortureSerializable is the headline robustness test: many
// distinct seeded hostile schedules × several protocols × contended
// workers, with the serializability oracle auditing every committed
// footprint. The workload mixes the paper's transfer example (value
// and key dependencies, so healing has real repair work), read-only
// audits that must observe the conserved total at commit time, and
// per-worker ad-hoc insert/delete churn that drives records through
// delete, garbage collection and fresh-dummy re-creation. Under DT the
// churn locks its key's stripe while transfers and audits, which name
// no partition, lock every stripe.
func TestChaosTortureSerializable(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	// Healing is the paper's contribution and gets double weight; the
	// optimistic baselines and the hybrid must survive the same abuse.
	// 2PL and DT run every seed besides, so that each seed keeps its
	// rotation protocol (and its subtest name).
	protos := []Protocol{Healing, Healing, OCC, Silo, Hybrid}
	for seed := 0; seed < seeds; seed++ {
		for _, proto := range []Protocol{protos[seed%len(protos)], TPL, DT} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, proto), func(t *testing.T) {
				t.Parallel()
				runChaosSeed(t, uint64(seed)+1, proto)
			})
		}
	}
}

func runChaosSeed(t *testing.T, seed uint64, proto Protocol) {
	const (
		accounts = 8
		workers  = 4
		txnsPer  = 120
		initial  = 1000
	)
	cat := storage.NewCatalog()
	for _, name := range []string{"CLIENT", "BALANCE", "BONUS", "CHURN"} {
		cat.MustCreateTable(storage.Schema{
			Name:    name,
			Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
		})
	}
	client, _ := cat.Table("CLIENT")
	balance, _ := cat.Table("BALANCE")
	bonus, _ := cat.Table("BONUS")
	for k := storage.Key(1); k <= accounts; k++ {
		client.Put(k, storage.Tuple{storage.Int(int64(k%accounts) + 1)}, 0)
		balance.Put(k, storage.Tuple{storage.Int(initial)}, 0)
		bonus.Put(k, storage.Tuple{storage.Int(0)}, 0)
	}

	sched := fault.NewSchedule(seed, workers)
	sched.SetDelay(2 * time.Microsecond)
	// "Stalls" here stretch conflict windows by ~a scheduler quantum,
	// not by watchdog-scale pauses (that scenario has its own test).
	sched.SetStall(200 * time.Microsecond)
	sched.Inject(fault.PreValidation, fault.ActYield, 0.15)
	sched.Inject(fault.PreValidation, fault.ActDelay, 0.10)
	sched.Inject(fault.PreValidation, fault.ActStall, 0.02)
	sched.Inject(fault.PreValidation, fault.ActRestart, 0.02)
	sched.Inject(fault.MidHealing, fault.ActYield, 0.20)
	sched.Inject(fault.MidHealing, fault.ActDelay, 0.10)
	sched.Inject(fault.MidHealing, fault.ActRestart, 0.02)
	sched.Inject(fault.CommitApply, fault.ActYield, 0.15)
	sched.Inject(fault.CommitApply, fault.ActDelay, 0.10)
	sched.Inject(fault.CommitApply, fault.ActRestart, 0.01)
	sched.Inject(fault.PreEpochAdvance, fault.ActDelay, 0.30)
	sched.Inject(fault.PostEpochAdvance, fault.ActYield, 0.30)

	orc := oracle.NewRecorder(workers)
	rec := obs.NewRecorder(workers, 1024)
	e := NewEngine(cat, Options{
		Protocol:      proto,
		Workers:       workers,
		EpochInterval: time.Millisecond,
		Interleave:    true,
		Chaos:         sched,
		Oracle:        orc,
		Recorder:      rec,
		// Generous per-rung budget: the ladder engages under the
		// injected restart storms without normally exhausting; a
		// transaction that does exhaust is shed, not a failure.
		RetryBudget: 64,
	})
	e.MustRegister(transferSpec())
	e.MustRegister(auditSpec(accounts))
	e.MustRegister(churnSpec())
	e.Start()

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.Worker(wi)
			// Worker-local deterministic LCG for argument choice.
			rng := seed*2862933555777941757 + uint64(wi) + 1
			next := func(n int64) int64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int64((rng >> 33) % uint64(n))
			}
			for i := 0; i < txnsPer; i++ {
				var err error
				switch i % 5 {
				case 3: // insert/delete churn on worker-private keys
					key := storage.Int(10_000 + int64(wi)*1_000 + next(5))
					_, err = w.RunAdhoc("Churn", key, storage.Int(int64(i)))
				case 4: // read-only audit: must see the conserved total
					var env *proc.Env
					env, err = w.Run("Audit")
					if err == nil {
						if got := env.Int("total"); got != accounts*initial {
							errCh <- fmt.Errorf("worker %d audit saw total %d, want %d", wi, got, accounts*initial)
							return
						}
					}
				default:
					src := storage.Int(next(accounts) + 1)
					amt := storage.Int(next(50))
					_, err = w.Run("Transfer", src, amt)
				}
				if err != nil && !errors.Is(err, ErrContended) {
					errCh <- fmt.Errorf("worker %d txn %d: %w", wi, i, err)
					return
				}
			}
		}(wi)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// A lock leaked on some path wedges the next transaction that
		// blocks on it; name the records before giving up.
		checkReleased(t, cat)
		t.Fatalf("seed %d under %v: workers wedged", seed, proto)
	}
	close(errCh)
	if err := e.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for err := range errCh {
		dumpEvents(t, rec, cat)
		t.Fatal(err)
	}

	// Every path — commit, heal, user abort, injected restart, every
	// rung of the ladder — released what it took.
	checkReleased(t, cat)
	checkStripesFree(t, e)

	// The schedule must actually have perturbed the run.
	injected := sched.Total(fault.ActYield) + sched.Total(fault.ActDelay) +
		sched.Total(fault.ActStall) + sched.Total(fault.ActRestart)
	if injected == 0 {
		t.Fatalf("chaos schedule injected nothing")
	}

	// Physical invariant: transfers conserve money.
	var total int64
	for k := storage.Key(1); k <= accounts; k++ {
		rec, _ := balance.Peek(k)
		total += rec.Tuple()[0].Int()
	}
	if total != accounts*initial {
		t.Errorf("total balance = %d, want %d (money created or destroyed)", total, accounts*initial)
	}

	// Protocol invariant: the committed history is serializable. A
	// violation ships with the flight-recorder interleaving — the
	// protocol checkpoints leading up to the bad commit.
	viols := orc.Check()
	for i, v := range viols {
		if i == 5 {
			break
		}
		t.Errorf("oracle: %v", v)
	}
	if len(viols) > 0 {
		dumpEvents(t, rec, cat)
		t.Fatalf("seed %d under %v: %d serializability violations over %d commits",
			seed, proto, len(viols), len(orc.Commits()))
	}
	if len(orc.Commits()) == 0 {
		t.Fatalf("oracle recorded no commits")
	}
}

// checkReleased reports every record of the catalog that still
// carries the meta lock bit, a 2PL hold (TryWLock wins only on a free
// lock) or a pin.
func checkReleased(t *testing.T, cat *storage.Catalog) {
	t.Helper()
	for _, tab := range cat.Tables() {
		name := tab.Schema().Name
		tab.ForEach(func(k storage.Key, r *storage.Record) bool {
			if r.Locked() {
				t.Errorf("%s[%d]: meta lock bit still set", name, k)
			}
			if !r.RW().TryWLock() {
				t.Errorf("%s[%d]: 2PL lock still held", name, k)
			} else {
				r.RW().WUnlock()
			}
			if n := r.Refs(); n != 0 {
				t.Errorf("%s[%d]: still pinned %d times", name, k, n)
			}
			return true
		})
	}
}

// TestChaosForcedStallTripsWatchdog scripts a single long stall into
// one worker's pre-validation checkpoint and checks the stuck-epoch
// watchdog detects it: the worker stays registered while the epoch
// races ahead, the trip is latched and surfaced through Metrics, and
// the stalled transaction still commits afterwards.
func TestChaosForcedStallTripsWatchdog(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "BALANCE",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("BALANCE")
	tab.Put(1, storage.Tuple{storage.Int(7)}, 0)

	// The stall spans eight times the watchdog's lag in epochs.
	const epoch = time.Millisecond
	sched := fault.NewSchedule(1, 2)
	sched.SetStall(8 * watchdogLag * epoch)
	sched.StallAt(1, fault.PreValidation, 0)

	e := NewEngine(cat, Options{
		Protocol:      Healing,
		Workers:       2,
		EpochInterval: epoch,
		Chaos:         sched,
	})
	e.Start()
	defer e.Stop()

	err := e.Worker(1).Transact(func(ctx proc.OpCtx) error {
		row, _, err := ctx.Read("BALANCE", 1, []int{0})
		if err != nil {
			return err
		}
		return ctx.Write("BALANCE", 1, []int{0}, []storage.Value{storage.Int(row[0].Int() + 1)})
	})
	if err != nil {
		t.Fatalf("stalled transaction failed: %v", err)
	}
	if trips := e.Epoch().Trips(1); trips < 1 {
		t.Fatalf("watchdog trips for stalled worker = %d, want >= 1", trips)
	}
	if trips := e.Epoch().Trips(0); trips != 0 {
		t.Fatalf("watchdog tripped for idle worker 0 (%d times)", trips)
	}
	if got := e.Metrics(time.Second).WatchdogTrips; got < 1 {
		t.Fatalf("aggregate WatchdogTrips = %d, want >= 1", got)
	}
	if sched.Count(fault.PreValidation, fault.ActStall) != 1 {
		t.Fatalf("scripted stall did not fire exactly once")
	}
}

// TestDegradationLadderRecoversMidway scripts exactly one rung's
// worth of restarts: the transaction must escalate once, then commit
// on the OCC rung instead of exhausting.
func TestDegradationLadderRecoversMidway(t *testing.T) {
	const budget = 4
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "BALANCE",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	tab, _ := cat.Table("BALANCE")
	tab.Put(1, storage.Tuple{storage.Int(0)}, 0)

	sched := fault.NewSchedule(4, 1)
	for visit := 0; visit < budget; visit++ {
		sched.ScriptAt(0, fault.PreValidation, visit, fault.ActRestart)
	}

	e := NewEngine(cat, Options{
		Protocol:    Healing,
		Workers:     1,
		Chaos:       sched,
		RetryBudget: budget,
	})
	e.MustRegister(&proc.Spec{
		Name: "Incr",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "incr", Body: func(ctx proc.OpCtx) error {
				row, _, err := ctx.Read("BALANCE", 1, []int{0})
				if err != nil {
					return err
				}
				return ctx.Write("BALANCE", 1, []int{0}, []storage.Value{storage.Int(row[0].Int() + 1)})
			}})
		},
	})
	w := e.Worker(0)
	if _, err := w.Run("Incr"); err != nil {
		t.Fatalf("transaction failed: %v", err)
	}
	m := w.Metrics()
	if m.Committed.Load() != 1 {
		t.Errorf("committed = %d, want 1", m.Committed.Load())
	}
	if m.Restarts.Load() != budget {
		t.Errorf("restarts = %d, want %d", m.Restarts.Load(), budget)
	}
	if m.HealingFallbacks.Load() != 1 {
		t.Errorf("fallbacks = %d, want 1 (Healing→OCC only)", m.HealingFallbacks.Load())
	}
	if m.BudgetExhausted.Load() != 0 {
		t.Errorf("budget exhaustions = %d, want 0", m.BudgetExhausted.Load())
	}
	rec, _ := tab.Peek(1)
	if got := rec.Tuple()[0].Int(); got != 1 {
		t.Errorf("balance = %d, want 1 (the OCC-rung attempt must have applied)", got)
	}
}

// TestBackoffReturnsOnEngineStop: once the engine stops, sleeping
// retriers must wake immediately — 1000 maximum-window backoffs after
// Stop complete in far less time than a single one would take asleep.
func TestBackoffReturnsOnEngineStop(t *testing.T) {
	e := NewEngine(storage.NewCatalog(), Options{Workers: 1})
	if err := e.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	w := e.Worker(0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		w.backoff(10) // max jitter window: up to 256µs each if asleep
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("1000 post-stop backoffs took %v; stop signal not honored", elapsed)
	}
}
