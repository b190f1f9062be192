// Package det implements THEDB-DT, the deterministic partitioned
// baseline of the paper's evaluation (§5, following H-Store [32],
// Hyper [33] and Calvin [53, 54]): storage is divided into
// partitions, each protected by one coarse-grained lock and executed
// without any record-level concurrency control. A transaction locks
// every partition it touches for its entire duration, so
// single-partition transactions on different partitions run in
// parallel while any cross-partition transaction serializes all its
// partitions — the behaviour Figure 12 measures.
//
// Read-only tables (schema.Partition == nil) are replicated in the
// paper's design; in shared memory that replication is free — they
// are readable from any partition without locking, matching the
// "replication of read-only tables" optimization [19, 45].
package det

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"thedb/internal/metrics"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// Proc couples a stored procedure with its partition-set function:
// Home returns the partitions the invocation touches, computable from
// the arguments alone (the deterministic execution model requires
// this).
type Proc struct {
	Spec *proc.Spec
	Home func(args []storage.Value) []int
}

// Engine is the deterministic partitioned engine.
type Engine struct {
	catalog    *storage.Catalog
	partitions []sync.Mutex
	specs      map[string]*Proc
	workers    []*Worker
	tsCounter  []uint64 // per-partition commit counter (first partition stamps)
	interleave bool
}

// SetInterleave makes workers yield between operations, matching the
// core engine's multicore-interleaving emulation (see DESIGN.md §3).
func (e *Engine) SetInterleave(v bool) { e.interleave = v }

// NewEngine builds a deterministic engine with n partitions.
func NewEngine(catalog *storage.Catalog, partitions, workers int) *Engine {
	e := &Engine{
		catalog:    catalog,
		partitions: make([]sync.Mutex, partitions),
		specs:      make(map[string]*Proc),
		tsCounter:  make([]uint64, partitions),
	}
	for i := 0; i < workers; i++ {
		e.workers = append(e.workers, &Worker{e: e, id: i})
	}
	return e
}

// Register adds a procedure with its partition-set function.
func (e *Engine) Register(p *Proc) error {
	if _, dup := e.specs[p.Spec.Name]; dup {
		return fmt.Errorf("det: procedure %q already registered", p.Spec.Name)
	}
	e.specs[p.Spec.Name] = p
	return nil
}

// MustRegister is Register panicking on duplicates.
func (e *Engine) MustRegister(p *Proc) {
	if err := e.Register(p); err != nil {
		panic(err)
	}
}

// Has reports whether a procedure is registered under name.
func (e *Engine) Has(name string) bool {
	_, ok := e.specs[name]
	return ok
}

// Partitions returns the partition count.
func (e *Engine) Partitions() int { return len(e.partitions) }

// Worker returns execution context i.
func (e *Engine) Worker(i int) *Worker { return e.workers[i] }

// Metrics merges all workers' collectors.
func (e *Engine) Metrics(wall time.Duration) *metrics.Aggregate {
	ws := make([]*metrics.Worker, len(e.workers))
	for i, w := range e.workers {
		ws[i] = &w.m
	}
	return metrics.Merge(wall, ws)
}

// Worker is one client execution context.
type Worker struct {
	e  *Engine
	id int
	m  metrics.Worker
}

// Metrics returns the worker's collector.
func (w *Worker) Metrics() *metrics.Worker { return &w.m }

// Run executes the procedure, locking its partition set for the
// duration (coarse-grained locking, the behaviour that makes
// cross-partition transactions expensive).
func (w *Worker) Run(procName string, args ...storage.Value) (*proc.Env, error) {
	p, ok := w.e.specs[procName]
	if !ok {
		return nil, fmt.Errorf("det: no such procedure %q", procName)
	}
	start := time.Now() //thedb:nolint:nondet latency metrics only; never feeds transaction logic
	parts := append([]int(nil), p.Home(args)...)
	sort.Ints(parts)
	parts = dedupInts(parts)
	for _, pi := range parts {
		// Safe by construction: parts was sorted and deduplicated
		// above, so all workers acquire partitions in ascending index
		// order.
		w.e.partitions[pi].Lock()
	}
	defer func() {
		for i := len(parts) - 1; i >= 0; i-- {
			w.e.partitions[parts[i]].Unlock()
		}
	}()

	env := p.Spec.Bind(args)
	prog := p.Spec.Instantiate(env)
	env.Start(prog)

	t := &txn{e: w.e, env: env, home: parts}
	for _, op := range prog.Ops {
		t.cur = op
		if err := op.Run(t); err != nil {
			t.rollback()
			w.m.Aborted.Add(1)
			return env, err
		}
		if w.e.interleave {
			runtime.Gosched()
		}
	}
	// Stamp updated records with a per-first-partition counter so
	// consistency checks and checkpoints see monotone timestamps.
	if len(parts) > 0 {
		w.e.tsCounter[parts[0]]++
		ts := storage.MakeTS(uint32(parts[0]+1), uint32(w.e.tsCounter[parts[0]]))
		for _, u := range t.undo {
			u.rec.SetTimestamp(ts)
		}
	}
	w.m.Committed.Add(1)
	w.m.ObserveLatency(time.Since(start)) //thedb:nolint:nondet latency metrics only; never feeds transaction logic
	return env, nil
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// undoRec captures a record's pre-image for rollback on user abort.
type undoRec struct {
	rec     *storage.Record
	tuple   storage.Tuple
	visible bool
	created bool // record materialized by this transaction
	tab     *storage.Table
}

// txn applies effects immediately (the partition locks make that
// safe) and keeps an undo log for user aborts. It implements
// proc.OpCtx.
type txn struct {
	e    *Engine
	env  *proc.Env
	cur  *proc.Op
	home []int
	undo []undoRec
}

var errNoTable = errors.New("det: no such table")

func (t *txn) table(name string) (*storage.Table, error) {
	tab, ok := t.e.catalog.Table(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNoTable, name)
	}
	return tab, nil
}

// Env implements proc.OpCtx.
func (t *txn) Env() *proc.Env { return t.env }

// Read implements proc.OpCtx.
func (t *txn) Read(table string, key storage.Key, _ []int) (storage.Tuple, bool, error) {
	tab, err := t.table(table)
	if err != nil {
		return nil, false, err
	}
	rec, ok := tab.Peek(key)
	if !ok || !rec.Visible() {
		return nil, false, nil
	}
	return rec.Tuple(), true, nil
}

func (t *txn) snapshot(tab *storage.Table, rec *storage.Record, created bool) {
	t.undo = append(t.undo, undoRec{
		rec:     rec,
		tuple:   rec.Tuple(),
		visible: rec.Visible(),
		created: created,
		tab:     tab,
	})
}

// Write implements proc.OpCtx.
func (t *txn) Write(table string, key storage.Key, cols []int, vals []storage.Value) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	rec, ok := tab.Peek(key)
	if !ok || !rec.Visible() {
		return proc.UserAbort(fmt.Sprintf("write to non-existent record %s[%d]", table, key))
	}
	t.snapshot(tab, rec, false)
	old := rec.Tuple()
	tuple := old.Clone()
	for i, c := range cols {
		tuple[c] = vals[i]
	}
	rec.SetTuple(tuple)
	tab.ReindexSecondaries(rec, old, tuple)
	return nil
}

// Insert implements proc.OpCtx.
func (t *txn) Insert(table string, key storage.Key, tuple storage.Tuple) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	if rec, ok := tab.Peek(key); ok && rec.Visible() {
		return proc.UserAbort(fmt.Sprintf("duplicate key %s[%d]", table, key))
	}
	rec := tab.Put(key, tuple, 0)
	t.snapshot(tab, rec, true)
	return nil
}

// Delete implements proc.OpCtx.
func (t *txn) Delete(table string, key storage.Key) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	rec, ok := tab.Peek(key)
	if !ok || !rec.Visible() {
		return proc.UserAbort(fmt.Sprintf("delete of non-existent record %s[%d]", table, key))
	}
	t.snapshot(tab, rec, false)
	rec.SetVisible(false)
	return nil
}

// Scan implements proc.OpCtx.
func (t *txn) Scan(table string, lo, hi storage.Key, limit int, fn func(key storage.Key, row storage.Tuple) bool) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	seen := 0
	tab.RangeScan(lo, hi, func(k storage.Key, rec *storage.Record) bool {
		if !rec.Visible() {
			return true
		}
		seen++
		if !fn(k, rec.Tuple()) {
			return false
		}
		return limit <= 0 || seen < limit
	})
	return nil
}

// ScanSec implements proc.OpCtx.
func (t *txn) ScanSec(table, index string, lo, hi string, limit int, fn func(pk storage.Key, row storage.Tuple) bool) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	idx := tab.SecondaryIndexID(index)
	if idx < 0 {
		return fmt.Errorf("det: table %s has no index %q", table, index)
	}
	seen := 0
	tab.SecondaryScan(idx, lo, hi, func(_ string, rec *storage.Record) bool {
		if !rec.Visible() {
			return true
		}
		seen++
		if !fn(rec.Key(), rec.Tuple()) {
			return false
		}
		return limit <= 0 || seen < limit
	})
	return nil
}

// rollback restores pre-images in reverse order.
func (t *txn) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if u.created {
			u.rec.SetVisible(false)
			continue
		}
		old := u.rec.Tuple()
		u.rec.SetTuple(u.tuple)
		u.tab.ReindexSecondaries(u.rec, old, u.tuple)
		u.rec.SetVisible(u.visible)
	}
	t.undo = nil
}
