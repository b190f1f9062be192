// Package core implements THEDB's transaction engine: the
// transaction-healing protocol (the paper's contribution) plus the
// baseline protocols the evaluation compares against — conventional
// OCC, Silo's OCC variant, no-wait two-phase locking, the OCC→2PL
// hybrid and the deterministic partitioned engine — all over the same
// storage, index, procedure and logging substrate.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/fault"
	"thedb/internal/metrics"
	"thedb/internal/mvcc"
	"thedb/internal/obs"
	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Protocol selects the concurrency-control mechanism of an engine.
type Protocol int

// The protocols evaluated in the paper (§5).
const (
	// Healing is the paper's transaction-healing protocol (THEDB).
	Healing Protocol = iota
	// OCC is conventional optimistic concurrency control with
	// Silo-style timestamp allocation and abort-and-restart
	// (THEDB-OCC).
	OCC
	// Silo is Silo's commit protocol: only the write set is locked,
	// reads validate unlocked (THEDB-SILO).
	Silo
	// TPL is two-phase locking with no-wait deadlock prevention
	// (THEDB-2PL).
	TPL
	// Hybrid runs OCC and switches to 2PL after a validation abort
	// (THEDB-HYBRID).
	Hybrid
	// OCCNoValidate disables OCC's validation phase: transactions
	// never abort but results may be non-serializable. It measures
	// peak attainable throughput (THEDB-OCC⁻, Fig. 8).
	OCCNoValidate
	// SiloNoValidate is the Silo analogue (THEDB-SILO⁻).
	SiloNoValidate
	// DT is the deterministic partitioned engine (THEDB-DT, following
	// H-Store and Calvin): a transaction locks the partitions its
	// arguments name (proc.Spec.Home), in order, and runs SiloNoValidate
	// under them.
	DT
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	switch p {
	case Healing:
		return "THEDB"
	case OCC:
		return "THEDB-OCC"
	case Silo:
		return "THEDB-SILO"
	case TPL:
		return "THEDB-2PL"
	case Hybrid:
		return "THEDB-HYBRID"
	case OCCNoValidate:
		return "THEDB-OCC-"
	case SiloNoValidate:
		return "THEDB-SILO-"
	case DT:
		return "THEDB-DT"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// OrderMode selects the global validation (lock-acquisition) order.
type OrderMode int

// Validation orders (§4.2.1, §4.5, Appendix G). The zero OrderMode
// means the protocol's default: TreeOrder for Healing, AddrOrder
// otherwise.
const (
	// AddrOrder sorts read/write-set elements by record address
	// alone, the conventional global order.
	AddrOrder OrderMode = iota + 1
	// TreeOrder sorts by (schema-tree rank, address): tables closer
	// to the schema root validate first, so key-dependent membership
	// updates insert elements after the frontier and deadlock-
	// prevention aborts become rare (§4.5).
	TreeOrder
	// ReverseTreeOrder reverses the rank comparison — the worst case
	// construction of Appendix G (THEDB-W).
	ReverseTreeOrder
)

// Options configures an engine.
type Options struct {
	// Protocol selects the concurrency-control mechanism.
	Protocol Protocol

	// Workers is the number of execution threads the engine serves.
	Workers int

	// Order selects the validation order; zero picks the protocol's
	// default (see OrderMode).
	Order OrderMode

	// EpochInterval is the period of the global epoch advancer
	// (default 10ms, §4.3).
	EpochInterval time.Duration

	// NoAccessCache disables the per-operation access cache (Table 4
	// ablation), making the healing protocol fall back to
	// abort-and-restart on validation failure.
	NoAccessCache bool

	// NoReadCopies disables the per-read column copies, and with
	// them false-invalidation elimination (§4.5, Table 4 ablation).
	NoReadCopies bool

	// DetailedMetrics enables per-phase timing (Fig. 19). Costs two
	// clock reads per phase; latency histograms are always on.
	DetailedMetrics bool

	// Interleave yields the scheduler after every operation of the
	// read phase. On a machine with fewer cores than workers this
	// emulates the fine-grained interleaving a real multicore
	// produces: without it a goroutine runs whole transactions
	// inside one scheduler slice and cross-transaction conflicts
	// almost never materialize (see DESIGN.md §1.1). Benchmarks enable
	// it; unit tests of logic paths usually do not need it.
	Interleave bool

	// Logger, when non-nil, receives the commit log (Appendix C).
	Logger *wal.Logger

	// Chaos, when non-nil, is the protocol-level fault injector: the
	// engine consults it at named checkpoints (pre-validation,
	// mid-healing, around the epoch advance, commit apply) and obeys
	// the drawn perturbation. Nil (the default) keeps every hot path
	// at a single pointer check.
	Chaos *fault.Schedule

	// Oracle, when non-nil, receives every committed transaction's
	// read/write footprint with its commit timestamp, for an offline
	// serializability check after the run (chaos tests).
	Oracle *oracle.Recorder

	// Recorder, when non-nil, is the flight recorder: workers and the
	// epoch advancer record typed protocol events (validation
	// failures, heal passes, HYBRID's 2PL hops, epoch seals, WAL
	// sync outcomes, watchdog trips, commits/aborts) into per-worker
	// lock-free rings. Nil (the default) keeps every event site at a
	// single pointer check, mirroring Chaos.
	Recorder *obs.Recorder

	// Tracer, when non-nil, enables per-transaction tracing: each
	// transaction accumulates monotonic phase timings (queue wait,
	// execute, validate, per-heal-pass detail, commit, WAL append)
	// into worker-owned scratch and the completed trace is offered to
	// the tracer's tail-retention ring. Nil (the default) keeps the
	// per-transaction cost at a single pointer check, mirroring
	// Recorder (DESIGN.md §7.3).
	Tracer *obs.Tracer

	// Contention, when non-nil, is the hot-key profiler: validation
	// failures and heal starts feed (table, key) into its space-saving
	// top-K sketch. Nil (the default) keeps the sites at one pointer
	// check; the sites sit on failure paths, never on the clean commit
	// path.
	Contention *obs.Contention
}

const (
	// syncRetries bounds how often a failed epoch log sync is retried
	// before the engine degrades to durability-lost; syncBackoff is
	// the first retry's delay, doubling per retry.
	syncRetries = 3
	syncBackoff = time.Millisecond

	// watchdogLag is how many epochs a worker may go without
	// refreshing its epoch registration, while executing a
	// transaction, before the stuck-epoch watchdog trips (surfaced as
	// WatchdogTrips in Metrics).
	watchdogLag = 16
)

// defaults fills unset fields.
func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.EpochInterval <= 0 {
		o.EpochInterval = 10 * time.Millisecond
	}
	if o.Order == 0 {
		if o.Protocol == Healing {
			o.Order = TreeOrder
		} else {
			o.Order = AddrOrder
		}
	}
}

// Engine executes transactions over a catalog under one protocol.
type Engine struct {
	opts    Options
	catalog *storage.Catalog
	gc      *storage.GC
	gcKick  func()
	epoch   *EpochManager
	specs   map[string]*proc.Spec
	workers []*Worker

	// rungs and adhocRungs are the policies the attempts of stored
	// procedures and of ad-hoc transactions run under (newRungs),
	// computed once from opts.
	rungs, adhocRungs []policy

	// stripes are DT's partition locks (see Worker.lockStripes).
	stripes [stripeCount]sync.Mutex

	// rec is the flight recorder (nil when event tracing is off).
	rec *obs.Recorder

	// tracer is the transaction trace ring (nil when tracing is off);
	// cont is the hot-key contention sketch (nil when profiling is
	// off).
	tracer *obs.Tracer
	cont   *obs.Contention

	// startNS is the Start() instant (UnixNano; 0 before Start), the
	// wall-clock origin live snapshots measure throughput against.
	startNS atomic.Int64

	// stopC is closed when the engine stops, so sleeping retriers
	// (backoff, injected chaos stalls) wake immediately instead of
	// delaying shutdown.
	stopC    chan struct{}
	stopOnce sync.Once

	// Snapshot-read state (DESIGN.md §4.6): snap publishes each
	// worker's pinned snapshot timestamp, snapFloor is the monotone
	// snapshot-floor ratchet; together they feed the version GC's
	// low-watermark.
	snap      *mvcc.PinSet
	snapFloor mvcc.Floor

	// Durability state (Appendix C group commit, hardened): the
	// epoch advancer seals and syncs the log streams each tick, so
	// an epoch is only reported durable once every stream holding
	// its transactions has reached stable storage.
	durableEpoch   atomic.Uint32
	durabilityLost atomic.Bool
	logSyncs       atomic.Int64
	logSyncFails   atomic.Int64
}

// NewEngine builds an engine over the catalog.
func NewEngine(catalog *storage.Catalog, opts Options) *Engine {
	opts.defaults()
	e := &Engine{
		opts:    opts,
		catalog: catalog,
		gc:      storage.NewGC(catalog),
		specs:   make(map[string]*proc.Spec),
		stopC:   make(chan struct{}),
		rec:     opts.Recorder,
		tracer:  opts.Tracer,
		cont:    opts.Contention,
		rungs:   newRungs(&opts, false),

		adhocRungs: newRungs(&opts, true),
	}
	e.epoch = NewEpochManager(opts.EpochInterval)
	e.epoch.chaos = opts.Chaos
	e.epoch.rec = opts.Recorder
	// Registration is always armed — VisibleFloor (snapshot reads)
	// scans it.
	e.epoch.Watch(opts.Workers)
	e.snap = mvcc.NewPinSet(opts.Workers)
	e.gc.SetWatermark(e.versionWatermark)
	for i := 0; i < opts.Workers; i++ {
		e.workers = append(e.workers, newWorker(e, i))
	}
	return e
}

// Start launches the epoch advancer and garbage collector. Each
// epoch tick also hardens the log: streams are sealed, flushed and
// synced so that group-committed epochs actually reach stable
// storage (Appendix C's group commit, made crash-tolerant).
func (e *Engine) Start() {
	e.startNS.Store(time.Now().UnixNano())
	e.gcKick = e.gc.Start()
	e.epoch.Start(func(ep uint32) {
		if e.gcKick != nil {
			e.gcKick()
		}
		e.syncToStable(ep)
	})
}

// syncToStable seals and syncs every log stream so all epochs up to
// cur-2 are on stable storage, then publishes the new durable epoch.
// The two-epoch lag keeps the seal behind any commit that computed
// its timestamp just before the previous advance (DESIGN.md §5.1).
// Transient sink errors are retried with exponential backoff; after
// syncRetries failures the engine degrades gracefully — transactions
// keep committing in memory, and the latched durability-lost state is
// surfaced via Metrics instead of wedging the advancer. Stop cuts a
// backoff short: its Logger.Close makes the last attempt.
func (e *Engine) syncToStable(cur uint32) {
	if e.opts.Logger == nil || cur < 3 {
		return
	}
	target := cur - 2
	e.advancerEvent(obs.KEpochSeal, cur, uint64(target), 0)
	for attempt := 0; ; attempt++ {
		err := e.opts.Logger.SealAndSync(target)
		if err == nil {
			e.logSyncs.Add(1)
			e.advancerEvent(obs.KWALSync, cur, 1, uint64(attempt))
			if target > e.durableEpoch.Load() {
				e.durableEpoch.Store(target)
			}
			return
		}
		e.logSyncFails.Add(1)
		e.advancerEvent(obs.KWALSync, cur, 0, uint64(attempt))
		if attempt >= syncRetries {
			e.durabilityLost.Store(true)
			return
		}
		if e.sleepOrStop(syncBackoff << attempt) {
			return // Stop's Logger.Close makes the last attempt
		}
	}
}

// sleepOrStop sleeps for d or until the engine stops, whichever comes
// first, and reports whether the engine stopped.
func (e *Engine) sleepOrStop(d time.Duration) bool {
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-e.stopC:
		return true
	}
}

// advancerEvent records a flight-recorder event on the epoch
// advancer's ring (no-op when tracing is off).
func (e *Engine) advancerEvent(k obs.Kind, epoch uint32, a, b uint64) {
	if e.rec != nil {
		e.rec.Record(obs.EpochActor, k, epoch, a, b)
	}
}

// Stop halts background services and closes the log: every stream is
// sealed at the highest epoch reached, flushed and synced. The
// returned error aggregates all per-stream failures.
func (e *Engine) Stop() error {
	e.stopOnce.Do(func() { close(e.stopC) })
	e.epoch.Stop()
	e.gc.Stop()
	if e.opts.Logger != nil {
		if err := e.opts.Logger.Close(); err != nil {
			e.durabilityLost.Store(true)
			return err
		}
		if cur := e.epoch.Current(); cur > e.durableEpoch.Load() {
			e.durableEpoch.Store(cur)
		}
	}
	return nil
}

// DurableEpoch returns the highest epoch known to be on stable
// storage in every log stream (0 when logging is off or nothing has
// been hardened yet). Transactions with commit epochs at or below it
// survive any crash.
func (e *Engine) DurableEpoch() uint32 { return e.durableEpoch.Load() }

// DurabilityLost reports whether a log sync exhausted its retries:
// the engine is still serving transactions, but durability of recent
// epochs is no longer guaranteed.
func (e *Engine) DurabilityLost() bool { return e.durabilityLost.Load() }

// SeedEpoch fast-forwards the global epoch to at least epoch (see
// EpochManager.SeedTo). Call after recovery, before serving resumes.
func (e *Engine) SeedEpoch(epoch uint32) { e.epoch.SeedTo(epoch) }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.catalog }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// GC returns the garbage collector (tests, maintenance).
func (e *Engine) GC() *storage.GC { return e.gc }

// Epoch returns the epoch manager.
func (e *Engine) Epoch() *EpochManager { return e.epoch }

// Register adds a stored procedure.
func (e *Engine) Register(spec *proc.Spec) error {
	if _, dup := e.specs[spec.Name]; dup {
		return fmt.Errorf("core: procedure %q already registered", spec.Name)
	}
	e.specs[spec.Name] = spec
	return nil
}

// MustRegister is Register panicking on duplicates.
func (e *Engine) MustRegister(spec *proc.Spec) {
	if err := e.Register(spec); err != nil {
		panic(err)
	}
}

// Spec returns a registered procedure.
func (e *Engine) Spec(name string) (*proc.Spec, bool) {
	s, ok := e.specs[name]
	return s, ok
}

// lookup resolves a procedure name for the run methods.
func (e *Engine) lookup(name string) (*proc.Spec, error) {
	spec, ok := e.specs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchProc, name)
	}
	return spec, nil
}

// Worker returns execution context i. Each worker must be driven by
// at most one goroutine at a time.
func (e *Engine) Worker(i int) *Worker { return e.workers[i] }

// Workers returns the number of workers.
func (e *Engine) Workers() int { return len(e.workers) }

// Metrics takes an epoch-consistent snapshot of every worker's
// counters, attributing the given wall time, without stopping the
// workers: each collector is read with atomic loads, and the whole
// scan retries (bounded) when the global epoch advances mid-scan, so
// the snapshot's counters all belong to the same epoch window.
func (e *Engine) Metrics(wall time.Duration) *metrics.Aggregate {
	ws := make([]*metrics.Worker, len(e.workers))
	for i, w := range e.workers {
		ws[i] = &w.m
	}
	for attempt := 0; ; attempt++ {
		ep := e.epoch.Current()
		a := metrics.Merge(wall, ws)
		// Watchdog trips are counted by the epoch advancer, not the
		// worker (the worker is by definition stuck when one fires).
		for i := range e.workers {
			a.WatchdogTrips += e.epoch.Trips(i)
		}
		// A scan spanning an epoch advance mixes pre- and post-advance
		// counters; retry a few times, then accept (the advance period
		// is orders of magnitude longer than a scan, so a second
		// collision is pathological).
		if e.epoch.Current() != ep && attempt < 3 {
			continue
		}
		a.Epoch = ep
		e.fillEngineMetrics(a)
		return a
	}
}

// LiveMetrics is Metrics over the wall time since Start, so TPS() is
// the lifetime average.
func (e *Engine) LiveMetrics() *metrics.Aggregate {
	var wall time.Duration
	if s := e.startNS.Load(); s != 0 {
		wall = time.Duration(time.Now().UnixNano() - s)
	}
	return e.Metrics(wall)
}

// fillEngineMetrics adds the engine-owned (non-per-worker) state to
// an aggregate: durability frontier, WAL volume, and the MVCC/snapshot
// gauges.
func (e *Engine) fillEngineMetrics(a *metrics.Aggregate) {
	a.DurableEpoch = e.durableEpoch.Load()
	a.DurabilityLost = e.durabilityLost.Load()
	a.LogSyncs = e.logSyncs.Load()
	a.LogSyncFailures = e.logSyncFails.Load()
	if e.opts.Logger != nil {
		st := e.opts.Logger.Stats()
		a.WALFrames = st.Frames
		a.WALBytes = st.Bytes
	}
	a.MVCCVersionsReclaimed = e.gc.VersionsReclaimed()
	a.MVCCTrackedChains = e.gc.TrackedChains()
	a.SnapshotsPinned = e.snap.Active()
	a.SnapshotEpochLag = e.snapshotEpochLag()
}

// Recorder returns the flight recorder (nil when event tracing is
// off).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Tracer returns the transaction trace ring (nil when tracing is
// off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Contention returns the hot-key contention sketch (nil when
// profiling is off).
func (e *Engine) Contention() *obs.Contention { return e.cont }

// Errors reported by the engine.
var (
	// ErrAborted reports a permanent abort: deadlock prevention
	// during healing membership update (§4.2.2) or an insert
	// integrity violation (§4.7.1).
	ErrAborted = errors.New("transaction aborted")

	// ErrNoSuchProc reports an unregistered procedure name.
	ErrNoSuchProc = errors.New("no such procedure")

	// errRestart is the internal signal that the current attempt
	// must be retried from scratch.
	errRestart = errors.New("restart transaction")
)
