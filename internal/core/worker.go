package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"thedb/internal/fault"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Worker is one execution thread's context: its metrics collector,
// its commit-timestamp state, its private log stream, its transaction
// frames. A worker must be driven by at most one goroutine at a time.
type Worker struct {
	e        *Engine
	id       int
	m        metrics.Worker
	lastTS   uint64
	wlog     *wal.WorkerLog
	rngState uint64

	// The frames its validated and its snapshot transactions run in, and
	// the variables of each (what Run and RunSnapshot return).
	txn       Txn
	snap      snapTxn
	env, senv proc.Env

	// curArgs holds the running procedure's argument vector for
	// command logging.
	curArgs []storage.Value

	// trace is the per-transaction scratch trace record; traceOn marks
	// it active for the transaction currently in runLoop. traceStart is
	// the monotonic instant phase offsets are measured from. The
	// scratch lives in the worker so the commit fast path records a
	// trace without allocating.
	trace      obs.Trace
	traceOn    bool
	traceStart time.Time

	// pendingTrace* carry caller-supplied trace context (a wire trace
	// ID, queue wait, admission wall clock) into the next runLoop;
	// consumed once by beginTrace.
	pendingTraceID uint64
	pendingQueueUS int64
	pendingStartNS int64

	// lastTraceSlot/lastTraceID report where the previous transaction's
	// trace landed in the tracer ring (slot -1 = dropped or tracing
	// off), so the serving plane can amend response-write time after
	// the fact.
	lastTraceSlot int
	lastTraceID   uint64
}

func newWorker(e *Engine, id int) *Worker {
	w := &Worker{e: e, id: id, rngState: uint64(id)*2685821657736338717 + 88172645463325252,
		lastTraceSlot: -1}
	w.txn.rw.order = e.opts.Order
	w.txn.frame = new([smallSet]Element)
	w.snap = snapTxn{w: w, e: e}
	if e.opts.Logger != nil {
		w.wlog = e.opts.Logger.Worker(id)
	}
	return w
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// Metrics returns the worker's collector.
func (w *Worker) Metrics() *metrics.Worker { return &w.m }

// event records a flight-recorder event on this worker's ring,
// stamped with the current global epoch. With tracing disabled
// (Options.Recorder nil, the default) the entire call is one pointer
// check and must stay allocation-free — the hot paths call it
// unconditionally.
//
//thedb:noalloc
func (w *Worker) event(k obs.Kind, a, b uint64) {
	if r := w.e.rec; r != nil {
		var tid uint64
		if w.traceOn {
			tid = w.trace.ID
		}
		r.RecordT(w.id, k, w.e.epoch.Current(), a, b, tid)
	}
}

// SetTraceContext primes the next transaction with caller-supplied
// trace context: the wire trace ID (0 = mint one locally), queue wait
// in microseconds, and the wall-clock admission instant in
// nanoseconds (0 = stamp at first execution). The context is consumed
// by the next Run/RunAdhoc/Transact and has no effect when tracing is
// off. Same single-goroutine contract as the run methods.
func (w *Worker) SetTraceContext(id uint64, queueUS, startNS int64) {
	w.pendingTraceID = id
	w.pendingQueueUS = queueUS
	w.pendingStartNS = startNS
}

// LastTrace reports where the previous transaction's trace landed:
// the tracer ring slot (-1 when it was dropped by tail sampling or
// tracing is off) and its trace ID, for post-response amendment via
// Tracer.AmendResp.
func (w *Worker) LastTrace() (slot int, id uint64) {
	return w.lastTraceSlot, w.lastTraceID
}

// beginTrace arms the worker's scratch trace for one transaction,
// consuming any pending caller context. Untraced callers get an ID
// minted from the worker-local xorshift (nonzero, so recorder events
// still correlate).
func (w *Worker) beginTrace(start time.Time, procName string) {
	id := w.pendingTraceID
	queueUS := w.pendingQueueUS
	startNS := w.pendingStartNS
	w.pendingTraceID, w.pendingQueueUS, w.pendingStartNS = 0, 0, 0
	if id == 0 {
		w.rngState = w.rngState*6364136223846793005 + 1442695040888963407
		id = w.rngState | 1
	}
	if startNS == 0 {
		startNS = start.UnixNano()
	}
	w.trace = obs.Trace{
		ID:      id,
		Proc:    procName,
		Worker:  int32(w.id),
		StartNS: startNS,
		QueueUS: queueUS,
	}
	w.traceStart = start
	w.traceOn = true
}

// finishTrace completes the scratch trace and offers it to the
// tracer's tail-retention ring. This sits on the commit fast path:
// with tracing off it is never reached (one nil check in runLoop);
// with tracing on it must not allocate.
//
//thedb:noalloc
func (w *Worker) finishTrace(outcome obs.TraceOutcome, lat time.Duration, attempts int) {
	w.trace.Outcome = outcome
	w.trace.TotalUS = int64(lat / time.Microsecond)
	w.trace.Attempts = uint32(attempts)
	w.trace.Epoch = w.e.epoch.Current()
	w.lastTraceSlot = w.e.tracer.Keep(&w.trace)
	w.lastTraceID = w.trace.ID
	w.traceOn = false
}

// tracePass records one completed healing pass in the scratch trace.
// Passes beyond MaxHealPasses are counted but lose their detail row.
func (w *Worker) tracePass(start, end time.Duration, restored, frontier int) {
	if n := w.trace.NPasses; n < obs.MaxHealPasses {
		w.trace.Passes[n] = obs.HealPass{
			StartUS:  int64(start / time.Microsecond),
			EndUS:    int64(end / time.Microsecond),
			Restored: uint32(restored),
			Frontier: uint32(frontier),
		}
	}
	w.trace.NPasses++
}

// Run executes the named stored procedure to completion under the
// engine's protocol, retrying aborted attempts (down the degradation
// ladder when Options.RetryBudget is set). It returns the final
// variable environment (query results), which the worker reuses for
// its next transaction, or the application abort error.
func (w *Worker) Run(procName string, args ...storage.Value) (*proc.Env, error) {
	return w.run(procName, args, w.e.rungs)
}

// RunAdhoc executes the procedure as an ad-hoc transaction (§4.8):
// no access cache is maintained and validation failures abort and
// restart under plain OCC, regardless of the engine protocol.
func (w *Worker) RunAdhoc(procName string, args ...storage.Value) (*proc.Env, error) {
	return w.run(procName, args, w.e.adhocRungs)
}

// Transact executes fn as an anonymous ad-hoc transaction: fn's reads
// and writes go through the usual OpCtx primitives and the
// transaction commits under plain OCC with abort-and-restart (§4.8 —
// ad-hoc transactions carry no dependency information, so they cannot
// be healed). fn may run multiple times; it must be idempotent apart
// from its OpCtx effects.
func (w *Worker) Transact(fn func(ctx proc.OpCtx) error) error {
	_, err := w.runLoop(closureSpec("adhoc", fn), nil, w.e.adhocRungs)
	return err
}

// closureSpec wraps fn as a one-operation anonymous procedure.
func closureSpec(name string, fn func(ctx proc.OpCtx) error) *proc.Spec {
	return &proc.Spec{
		Name: name,
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: name, Body: fn})
		},
	}
}

func (w *Worker) run(procName string, args []storage.Value, rungs []rung) (*proc.Env, error) {
	spec, err := w.e.lookup(procName)
	if err != nil {
		return nil, err
	}
	return w.runLoop(spec, args, rungs)
}

// compile is Spec.Compile with the expansions counted.
func (w *Worker) compile(spec *proc.Spec, env *proc.Env) (*proc.Program, error) {
	prog, planned, err := spec.Compile(env)
	if planned {
		w.m.PlanExpansions.Add(1)
	}
	return prog, err
}

// runLoop drives one transaction to commit or permanent failure down
// the given degradation ladder: each rung retries under one policy until
// its budget is spent, then the ladder escalates to a less optimistic
// rung; past the last rung the transaction fails with ErrContended.
// The program is compiled once, ahead of the loop (a malformed one is
// refused like an unknown name, before a transaction exists); every
// attempt starts from the arguments alone (newTxn). Under DT the
// partition stripes are held from there until the loop returns. The
// loop also keeps the worker's epoch registration fresh, so the
// stuck-epoch watchdog can tell a worker wedged inside an attempt from
// one that is merely between transactions — or waiting on a stripe.
func (w *Worker) runLoop(spec *proc.Spec, args []storage.Value, rungs []rung) (*proc.Env, error) {
	start := time.Now()
	env := &w.env
	env.Reset(spec, args)
	prog, err := w.compile(spec, env)
	if err != nil {
		return nil, err
	}
	if rungs[0].stripes {
		defer w.unlockStripes(w.lockStripes(spec.Home, args))
	}
	procName := spec.Name
	w.curArgs = args
	lad := ladder{rungs: rungs}
	if w.e.tracer != nil {
		w.beginTrace(start, procName)
	}
	defer w.e.epoch.Idle(w.id)
	for {
		w.e.epoch.Refresh(w.id)
		err := w.attempt(prog, env, &lad)
		if err == nil {
			lat := time.Since(start)
			w.m.Committed.Add(1)
			w.m.ObserveLatency(lat)
			w.event(obs.KCommit, w.lastTS, uint64(lat/time.Microsecond))
			if w.traceOn {
				w.finishTrace(obs.TraceCommitted, lat, lad.total+1)
			}
			return env, nil
		}
		if errors.Is(err, errRestart) {
			w.m.Restarts.Add(1)
			prev := lad.idx
			if !lad.next(&w.m) {
				w.m.BudgetExhausted.Add(1)
				w.m.Aborted.Add(1)
				w.event(obs.KAbort, uint64(obs.AbortContended), uint64(lad.total))
				if w.traceOn {
					w.finishTrace(obs.TraceContended, time.Since(start), lad.total)
				}
				return env, fmt.Errorf("%w: %q gave up after %d attempts", ErrContended, procName, lad.total)
			}
			if lad.idx != prev {
				w.event(obs.KLadderEscalate, uint64(lad.rungs[prev].proto), uint64(lad.rungs[lad.idx].proto))
				if w.traceOn {
					w.trace.Escalations++
				}
			}
			w.backoff(lad.spent)
			continue
		}
		// Application abort: permanent.
		w.m.Aborted.Add(1)
		w.event(obs.KAbort, uint64(obs.AbortUser), uint64(lad.total))
		if w.traceOn {
			w.finishTrace(obs.TraceAborted, time.Since(start), lad.total+1)
		}
		return env, err
	}
}

// stripeCount is the number of DT partition stripes: one per bit of
// the set lockStripes returns, and one per warehouse up to 64.
const stripeCount = 64

// lockStripes takes the stripes of the partition keys home names for
// args (key % stripeCount; every stripe when home is nil), once each
// and in ascending order, so no two workers can wait on each other. It
// returns the set it took.
func (w *Worker) lockStripes(home func([]storage.Value) []int, args []storage.Value) uint64 {
	set := ^uint64(0)
	if home != nil {
		set = 0
		for _, k := range home(args) {
			set |= 1 << (uint(k) % stripeCount)
		}
	}
	for s := set; s != 0; s &= s - 1 {
		w.e.stripes[bits.TrailingZeros64(s)].Lock()
	}
	return set
}

// unlockStripes releases the set lockStripes took.
func (w *Worker) unlockStripes(set uint64) {
	for ; set != 0; set &= set - 1 {
		w.e.stripes[bits.TrailingZeros64(set)].Unlock()
	}
}

// backoff sleeps after a restart with capped exponential jitter. It
// breaks restart livelocks between symmetric transactions — the same
// role randomized backoff plays in production OCC and no-wait 2PL
// engines. The first couple of retries are free (short conflicts
// resolve on their own), and the sleep is cut short when the engine
// stops so shutdown is never held up by sleeping retriers.
func (w *Worker) backoff(attempt int) {
	if attempt < 2 {
		runtime.Gosched()
		return
	}
	shift := attempt
	if shift > 8 {
		shift = 8
	}
	// 1-2^shift µs of jitter from a cheap worker-local xorshift.
	w.rngState = w.rngState*6364136223846793005 + 1442695040888963407
	jitter := (w.rngState >> 33) % (uint64(1) << shift)
	w.e.sleepOrStop(time.Duration(1+jitter) * time.Microsecond)
}

// chaosPoint consults the chaos schedule (when configured) at a
// protocol checkpoint and obeys the drawn perturbation. ActRestart
// surfaces as errRestart, which the caller handles exactly like a
// validation abort.
func (w *Worker) chaosPoint(cp fault.Checkpoint) error {
	s := w.e.opts.Chaos
	if s == nil {
		return nil
	}
	act, d := s.At(w.id, cp)
	switch act {
	case fault.ActYield:
		runtime.Gosched()
	case fault.ActDelay, fault.ActStall:
		w.e.sleepOrStop(d)
	case fault.ActRestart:
		return errRestart
	}
	return nil
}

// attempt executes one try of the transaction under the ladder's
// current rung: execute, lock and validate, commit. It returns nil on
// commit, errRestart when the attempt must be retried, or a permanent
// application error.
func (w *Worker) attempt(prog *proc.Program, env *proc.Env, lad *ladder) error {
	t := newTxn(w, prog, env, &lad.rungs[lad.idx].policy)
	// Liveness guard for the multicore-interleaving emulation: after
	// repeated restarts, run an attempt without yielding so its
	// conflict window collapses and it commits (a long transaction
	// such as TPC-C Delivery could otherwise starve forever under
	// stretched windows; real multicores do not stretch windows by
	// the worker count).
	if lad.total > 8 {
		t.pol.yield = false
	}
	err := t.readPhase()
	if err == nil {
		err = t.validateAndCommit()
	}
	// The per-phase counters describe committed attempts; a failed
	// attempt's whole duration is abort time. (The trace, by contrast,
	// accumulates across attempts as the phases run: a restarted
	// attempt's work is real latency.)
	if err != nil {
		t.finish(false)
		if w.e.opts.DetailedMetrics {
			w.m.AddPhase(metrics.PhaseAbort, time.Since(t.start))
		}
		return err
	}
	if w.e.opts.DetailedMetrics {
		for p, d := range t.phase {
			w.m.AddPhase(metrics.Phase(p), d)
		}
	}
	return nil
}
