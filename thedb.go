// Package thedb is a main-memory OLTP database engine implementing
// transaction healing — the concurrency-control mechanism of
// "Transaction Healing: Scaling Optimistic Concurrency Control on
// Multicores" (Wu, Chan, Tan; SIGMOD 2016) — together with the
// baseline protocols its evaluation compares against: conventional
// OCC, Silo's OCC variant, no-wait two-phase locking and an OCC→2PL
// hybrid. (The deterministic partitioned baseline, THEDB-DT, is
// core.DT, not exported here; `thedb-bench fig12` drives it.)
//
// # Quick start
//
//	db, _ := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 4})
//	db.MustCreateTable(thedb.Schema{
//	    Name:    "ACCOUNTS",
//	    Columns: []thedb.ColumnDef{{Name: "balance", Kind: thedb.KindInt}},
//	})
//	db.MustRegister(transferSpec) // a *thedb.Spec stored procedure
//	db.Start()
//	defer db.Close()
//
//	s := db.Session(0)
//	env, err := s.Run("Transfer", thedb.Int(1), thedb.Int(20))
//
// Stored procedures are written against the declarative operation IR
// of package proc (re-exported here): each operation declares the
// variables it consumes — split into key inputs and value inputs —
// and produces, which is what lets the engine heal an invalidated
// transaction by restoring only its non-serializable operations
// instead of aborting it.
package thedb

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/core"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Re-exported storage types: values, tuples, keys, schemas.
type (
	// Value is a single column value.
	Value = storage.Value
	// Tuple is one row of column values.
	Tuple = storage.Tuple
	// Key is a 64-bit primary key.
	Key = storage.Key
	// Schema describes a table.
	Schema = storage.Schema
	// ColumnDef describes one column.
	ColumnDef = storage.ColumnDef
	// SecondaryDef declares a string-keyed ordered secondary index.
	SecondaryDef = storage.SecondaryDef
	// ValueKind discriminates column value types.
	ValueKind = storage.ValueKind
)

// Re-exported procedure IR types.
type (
	// Spec is a stored procedure definition.
	Spec = proc.Spec
	// Op is one operation of a procedure.
	Op = proc.Op
	// OpCtx is the execution context handed to operation bodies.
	OpCtx = proc.OpCtx
	// Env is a transaction's variable environment.
	Env = proc.Env
	// Builder collects a procedure invocation's operations.
	Builder = proc.Builder
)

// Value constructors and kinds.
var (
	// Int builds an integer value.
	Int = storage.Int
	// Float builds a floating-point value.
	Float = storage.Float
	// Str builds a string value.
	Str = storage.Str
	// Null is the SQL-style null value.
	Null = storage.Null
	// UserAbort builds an application-initiated abort error.
	UserAbort = proc.UserAbort
	// NewEnv builds an empty variable environment (mainly for
	// inspecting dependency graphs via Spec.Instantiate).
	NewEnv = proc.NewEnv
	// PackKey packs key components into a Key.
	PackKey = storage.PackKey
)

// Column kinds.
const (
	KindNull   = storage.KindNull
	KindInt    = storage.KindInt
	KindFloat  = storage.KindFloat
	KindString = storage.KindString
)

// Typed engine failures, re-exported for callers (and the network
// serving plane) to classify with errors.Is.
var (
	// ErrNoSuchProc reports an unregistered procedure name.
	ErrNoSuchProc = core.ErrNoSuchProc
	// ErrMalformedProc reports a registered procedure whose expansion
	// is not well-formed (an operation without a body, or one that
	// writes an argument) or whose operation body touched a variable
	// it did not declare: Run and RunSnapshot refuse it, without a
	// retry.
	ErrMalformedProc = proc.ErrMalformed
	// ErrRecoveryFailed reports that recovery left the database in an
	// undefined state (command replay failed partway): the instance is
	// poisoned and every subsequent transaction fails with this error.
	// Restore from scratch instead of retrying.
	ErrRecoveryFailed = errors.New("thedb: recovery failed, database poisoned")
	// ErrReadOnlyTxn reports a write attempted inside a snapshot
	// transaction (RunSnapshot / SnapshotRead).
	ErrReadOnlyTxn = core.ErrReadOnlyTxn
)

// Protocol selects the concurrency-control mechanism; its String
// method names the protocol as the paper does.
type Protocol = core.Protocol

// Protocols, named as the paper's systems (§5).
const (
	// Healing is transaction healing (THEDB), the paper's
	// contribution.
	Healing = core.Healing
	// OCC is conventional optimistic concurrency control with
	// abort-and-restart (THEDB-OCC).
	OCC = core.OCC
	// Silo is Silo's commit protocol (THEDB-SILO).
	Silo = core.Silo
	// TPL is no-wait two-phase locking (THEDB-2PL).
	TPL = core.TPL
	// Hybrid retries OCC validation failures under 2PL
	// (THEDB-HYBRID).
	Hybrid = core.Hybrid
	// OCCNoValidate disables OCC validation — non-serializable; it
	// measures peak no-abort throughput (THEDB-OCC⁻).
	OCCNoValidate = core.OCCNoValidate
	// SiloNoValidate is the Silo analogue (THEDB-SILO⁻).
	SiloNoValidate = core.SiloNoValidate
)

// LogMode selects what the write-ahead log records (Appendix C).
type LogMode = wal.Mode

// Logging modes.
const (
	// ValueLogging logs record after-images.
	ValueLogging = wal.ValueLogging
	// CommandLogging logs procedure names and arguments.
	CommandLogging = wal.CommandLogging
)

// Config configures a database instance.
type Config struct {
	// Protocol selects the concurrency-control mechanism.
	Protocol Protocol

	// Workers is the number of execution sessions (default 1).
	Workers int

	// EpochInterval is the commit-epoch period (default 10ms, §4.3).
	EpochInterval time.Duration

	// DetailedMetrics enables per-phase timing (Fig. 19).
	DetailedMetrics bool

	// LogSink, when non-nil, enables durability: worker i's log
	// stream goes to LogSink(i) (Appendix C). Sinks must not be
	// shared between workers. Sinks implementing Syncer (os.File
	// does) are synced on each epoch advance, and an epoch is only
	// reported durable — see Metrics().DurableEpoch — once every
	// stream has reached stable storage.
	LogSink func(worker int) io.Writer

	// LogMode selects value or command logging.
	LogMode LogMode

	// WALSet, when non-nil, logs each worker into the set's rotating
	// generation files (see OpenWALSet) instead of a fixed LogSink —
	// the layout checkpoints can truncate. LogSink and WALSet are
	// exclusive (ErrLogSinkAndWALSet). The set's worker count must
	// equal Workers, and checkpoints go in the set's directory
	// (ErrCheckpointDir).
	WALSet *WALSet

	// EventBuffer enables the flight recorder: each worker (plus the
	// epoch advancer) gets a lock-free ring holding the last
	// EventBuffer protocol events, dumped via DumpEvents or served at
	// /debug/events by ObsHandler. Zero (the default) disables
	// recording entirely — the per-event cost is then a single nil
	// check. Rounded up to a power of two.
	EventBuffer int

	// TraceBuffer enables per-transaction tracing: every transaction
	// accumulates phase timings (queue wait, execute, validate, each
	// heal pass with restored-op counts, commit, WAL append) and the
	// completed trace passes a tail-sampling filter into a bounded ring
	// of the last TraceBuffer retained traces — slow, aborted and
	// healed transactions always kept, clean fast commits
	// dropped. Served at /debug/trace by ObsHandler. Zero (the default)
	// disables tracing; the per-transaction cost is then one nil check.
	TraceBuffer int

	// TraceSlow is the latency threshold above which a committed
	// transaction counts as slow for tail sampling and histogram
	// exemplars (default 0 = only aborted/healed transactions
	// are retained).
	TraceSlow time.Duration

	// TraceExemplars attaches the most recent slow trace ID to the
	// latency histogram in OpenMetrics exemplar syntax. Off by default
	// because strict Prometheus 0.0.4 parsers may reject the suffix.
	TraceExemplars bool

	// ContentionK enables the hot-key contention profiler: a
	// space-saving top-K sketch fed from validation-failure and
	// heal-start sites, served at /debug/contention and exposed as the
	// thedb_contention_topk metric series. Zero (the default) disables
	// it.
	ContentionK int

	// Oracle, when non-nil, records every committed transaction's
	// read/write footprint with its commit timestamp for an offline
	// serializability check (oracle.Recorder.Check) after the run.
	// Meant for torture tests; it keeps all commits in memory.
	Oracle *oracle.Recorder
}

// DB is a database instance: a catalog of tables plus one engine.
type DB struct {
	cfg     Config
	catalog *storage.Catalog
	eng     *core.Engine // built on first use, see engine
	logger  *wal.Logger
	rec     *obs.Recorder   // nil unless Config.EventBuffer > 0
	tracer  *obs.Tracer     // nil unless Config.TraceBuffer > 0
	cont    *obs.Contention // nil unless Config.ContentionK > 0
	started bool

	ck      *checkpoint.Checkpointer // background checkpointer, if any
	ckstats metrics.Checkpoint

	// poisoned latches after a failed recovery: the store may hold a
	// partially replayed state, so every transaction is refused with
	// ErrRecoveryFailed rather than serving undefined data.
	poisoned atomic.Bool
}

// ErrLogSinkAndWALSet reports a Config that sets both LogSink and
// WALSet. A checkpoint round rotates every stream into the set's
// files, so the LogSink streams would stop mid-run and the set would
// lack the groups logged before the first rotation.
var ErrLogSinkAndWALSet = errors.New("thedb: Config.LogSink and Config.WALSet are exclusive")

// Open creates an empty database. Create tables and register
// procedures, then call Start. It refuses a Config that sets both
// LogSink and WALSet, and a WALSet kept for a worker count other than
// Config.Workers.
func Open(cfg Config) (*DB, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.LogSink != nil && cfg.WALSet != nil {
		return nil, ErrLogSinkAndWALSet
	}
	if cfg.WALSet != nil && cfg.WALSet.Workers() != cfg.Workers {
		return nil, fmt.Errorf("thedb: WAL set in %s holds %d worker streams, Config.Workers is %d",
			cfg.WALSet.Dir(), cfg.WALSet.Workers(), cfg.Workers)
	}
	db := &DB{cfg: cfg, catalog: storage.NewCatalog()}
	return db, nil
}

// CreateTable adds a table to the catalog. All tables must be created
// before Start.
func (db *DB) CreateTable(schema Schema) error {
	_, err := db.catalog.CreateTable(schema)
	return err
}

// MustCreateTable is CreateTable panicking on error.
func (db *DB) MustCreateTable(schema Schema) {
	if err := db.CreateTable(schema); err != nil {
		panic(err)
	}
}

// Register adds a stored procedure.
func (db *DB) Register(spec *Spec) error {
	return db.engine().Register(spec)
}

// MustRegister is Register panicking on error.
func (db *DB) MustRegister(spec *Spec) {
	if err := db.Register(spec); err != nil {
		panic(err)
	}
}

// engine returns the database's engine, building it on first use
// together with the log, recorder, tracer and contention sketch the
// configuration asks for.
func (db *DB) engine() *core.Engine {
	if db.eng != nil {
		return db.eng
	}
	sink := db.cfg.LogSink
	if db.cfg.WALSet != nil {
		sink = db.cfg.WALSet.Sink
	}
	if sink != nil {
		db.logger = wal.NewLogger(db.cfg.LogMode, db.cfg.Workers, sink)
	}
	if db.cfg.EventBuffer > 0 {
		db.rec = obs.NewRecorder(db.cfg.Workers, db.cfg.EventBuffer)
	}
	if db.cfg.TraceBuffer > 0 {
		db.tracer = obs.NewTracer(db.cfg.TraceBuffer, db.cfg.TraceSlow)
	}
	if db.cfg.ContentionK > 0 {
		db.cont = obs.NewContention(db.cfg.ContentionK)
	}
	db.eng = core.NewEngine(db.catalog, core.Options{
		Protocol:        db.cfg.Protocol,
		Workers:         db.cfg.Workers,
		EpochInterval:   db.cfg.EpochInterval,
		DetailedMetrics: db.cfg.DetailedMetrics,
		Logger:          db.logger,
		Recorder:        db.rec,
		Tracer:          db.tracer,
		Contention:      db.cont,
		Oracle:          db.cfg.Oracle,
	})
	return db.eng
}

// Start launches background services (epoch advancer, garbage
// collector). Population (see Load) must happen before Start or
// between transactions.
func (db *DB) Start() {
	if !db.started {
		db.engine().Start()
	}
	db.started = true
}

// Close stops background services and closes the log: every stream
// is sealed, flushed and synced. The returned error aggregates all
// per-stream flush and sync failures (errors.Join); a nil return
// means everything logged so far is on stable storage.
func (db *DB) Close() error {
	db.StopCheckpoints()
	var err error
	if db.started {
		err = db.eng.Stop()
	}
	db.started = false
	return err
}

// Table gives raw (non-transactional) access to a table for
// population and inspection.
func (db *DB) Table(name string) (*storage.Table, bool) {
	return db.catalog.Table(name)
}

// Catalog exposes the underlying catalog (population helpers,
// checkpointing).
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// Session returns execution context i in [0, Workers). A session
// must be driven by one goroutine at a time.
func (db *DB) Session(i int) *Session {
	return &Session{db: db, w: db.engine().Worker(i)}
}

// Workers returns the configured session count: valid session indexes
// are [0, Workers).
func (db *DB) Workers() int { return db.cfg.Workers }

// SnapshotRead runs fn as a read-only snapshot transaction on session
// 0 — the convenience entry point for ad-hoc analytics against a
// running instance. It inherits session 0's single-goroutine contract:
// callers sharing session 0 must serialize with it. See
// Session.SnapshotRead for the semantics.
func (db *DB) SnapshotRead(fn func(ctx OpCtx) error) error {
	return db.Session(0).SnapshotRead(fn)
}

// HasProcedure reports whether a stored procedure is registered under
// name. The network server consults it to reject unknown procedures
// before burning a transaction attempt.
func (db *DB) HasProcedure(name string) bool {
	_, ok := db.engine().Spec(name)
	return ok
}

// Metrics snapshots all sessions' counters, attributing the given
// wall-clock duration. It is safe while transactions are in flight:
// counters are read atomically and the scan retries if the global
// epoch advances mid-read, so the snapshot is epoch-consistent.
func (db *DB) Metrics(wall time.Duration) *metrics.Aggregate {
	return db.engine().Metrics(wall)
}

// LiveMetrics is Metrics with the wall time (for TPS) running from
// Start.
func (db *DB) LiveMetrics() *metrics.Aggregate {
	return db.engine().LiveMetrics()
}

// Event is one decoded flight-recorder entry (see Config.EventBuffer).
type Event = obs.Event

// Events returns the flight recorder's surviving events merged across
// all rings in recording order. Empty unless Config.EventBuffer > 0.
func (db *DB) Events() []Event {
	if db.rec == nil {
		return nil
	}
	return db.rec.Events()
}

// DumpEvents writes the flight recorder's merged, time-ordered event
// interleaving — one line per event naming the worker, epoch and
// protocol checkpoint — resolving table IDs through the catalog.
// A no-op unless Config.EventBuffer > 0.
func (db *DB) DumpEvents(w io.Writer) {
	if db.rec == nil {
		return
	}
	db.rec.DumpWith(w, db.tableName)
}

func (db *DB) tableName(id int) string {
	if tab := db.catalog.TableByID(id); tab != nil {
		return tab.Schema().Name
	}
	return fmt.Sprintf("table#%d", id)
}

// ObsPlane returns an observability plane wired to this database's
// live metrics and flight recorder. Callers can attach further
// sources (e.g. the network server's counters via SetServerStats)
// before serving plane.Handler().
func (db *DB) ObsPlane() *obs.Plane {
	db.engine()
	p := obs.NewPlane()
	p.SetSource(db.LiveMetrics)
	p.SetRecorder(db.rec, db.tableName)
	p.SetCheckpointStats(&db.ckstats)
	p.SetTracer(db.tracer, db.cfg.TraceExemplars)
	p.SetContention(db.cont)
	return p
}

// Tracer returns the transaction trace ring (nil unless
// Config.TraceBuffer > 0).
func (db *DB) Tracer() *obs.Tracer {
	db.engine()
	return db.tracer
}

// Contention returns the hot-key contention sketch (nil unless
// Config.ContentionK > 0).
func (db *DB) Contention() *obs.Contention {
	db.engine()
	return db.cont
}

// ObsHandler returns the observability HTTP handler: /metrics
// (Prometheus text format of LiveMetrics), /debug/events (flight
// recorder dump, 404 when EventBuffer is 0), /debug/trace (retained
// transaction traces, 404 when TraceBuffer is 0), /debug/contention
// (hot-key sketch, 404 when ContentionK is 0) and /debug/pprof/.
// Mount it on any mux or serve it with obs.StartServer.
func (db *DB) ObsHandler() http.Handler {
	return db.ObsPlane().Handler()
}

// Session is one execution thread's handle.
type Session struct {
	db *DB
	w  *core.Worker
}

// usable refuses service on a database whose recovery failed.
func (s *Session) usable() error {
	if s.db.poisoned.Load() {
		return ErrRecoveryFailed
	}
	return nil
}

// Run executes a stored procedure to completion, retrying internal
// conflicts per the configured protocol. It returns the variable
// environment holding the procedure's outputs, or the application's
// abort error.
//
// The returned *Env belongs to the session and is valid until the next
// call on it (Run, RunAdhoc, RunSnapshot, Transact or SnapshotRead),
// which refills it: read or copy what you need first. The same holds
// for RunAdhoc and RunSnapshot.
func (s *Session) Run(procName string, args ...Value) (*Env, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	return s.w.Run(procName, args...)
}

// RunAdhoc executes a procedure as an ad-hoc transaction (§4.8):
// plain OCC with abort-and-restart, no healing.
func (s *Session) RunAdhoc(procName string, args ...Value) (*Env, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	return s.w.RunAdhoc(procName, args...)
}

// Transact runs fn as an anonymous ad-hoc transaction — the
// interactive-query path (§4.8). fn's reads and writes go through the
// OpCtx primitives; the transaction is serialized with plain OCC and
// fn may re-run after conflicts, so it must be idempotent apart from
// its OpCtx effects.
func (s *Session) Transact(fn func(ctx OpCtx) error) error {
	if err := s.usable(); err != nil {
		return err
	}
	return s.w.Transact(fn)
}

// RunSnapshot executes a stored procedure as a read-only snapshot
// transaction (DESIGN.md §15): it pins an epoch-consistent snapshot at
// start, resolves every read against the record version visible at
// that snapshot, and commits with zero validation — no read-set
// tracking, no healing, no aborts, and no interference with concurrent
// writers. Any write primitive inside the procedure fails with
// ErrReadOnlyTxn. Long analytical scans run at a stable snapshot
// without ever invalidating or being invalidated.
func (s *Session) RunSnapshot(procName string, args ...Value) (*Env, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	return s.w.RunSnapshot(procName, args...)
}

// SnapshotRead runs fn as an anonymous read-only snapshot transaction:
// fn's reads go through the usual OpCtx primitives against one
// epoch-consistent snapshot; writes fail with ErrReadOnlyTxn. fn runs
// exactly once — snapshot transactions never restart.
func (s *Session) SnapshotRead(fn func(ctx OpCtx) error) error {
	if err := s.usable(); err != nil {
		return err
	}
	return s.w.TransactSnapshot(fn)
}

// SetTraceContext primes the session's next transaction with
// caller-supplied trace context: the wire trace ID (0 = mint one
// locally), queue wait in microseconds, and the admission wall clock
// in nanoseconds (0 = stamp at first execution). A no-op when tracing
// is off.
func (s *Session) SetTraceContext(id uint64, queueUS, startNS int64) {
	s.w.SetTraceContext(id, queueUS, startNS)
}

// LastTrace reports where the session's previous transaction landed
// in the trace ring: the slot (-1 when dropped by tail sampling or
// tracing is off) and its trace ID. The serving plane uses it to
// amend response-write time via Tracer.AmendResp.
func (s *Session) LastTrace() (slot int, id uint64) {
	return s.w.LastTrace()
}

// Metrics returns this session's private counters.
func (s *Session) Metrics() *metrics.Worker {
	return s.w.Metrics()
}
