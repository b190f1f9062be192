package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"thedb/internal/btree"
	"thedb/internal/fault"
	"thedb/internal/metrics"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// execMode selects how OpCtx primitives behave.
type execMode uint8

const (
	// modeExec is the initial read phase: every access is performed
	// against the index and registered in the access cache.
	modeExec execMode = iota
	// modeReplay is value-dependent restoration (§4.2.2): accesses
	// are replayed positionally against the cached record addresses;
	// no index lookups happen.
	modeReplay
	// modeReexec is key-dependent restoration: the operation re-runs
	// with fresh index lookups and the read/write-set membership is
	// updated with the access-set diff.
	modeReexec
)

// errDiverged signals that a cached replay no longer matches the
// operation's original access pattern; the engine falls back to
// abort-and-restart, which is always safe.
var errDiverged = errors.New("core: cached replay diverged")

// Txn is a worker's transaction frame, the paper's thread-local
// read/write set and access cache (§4.1): every attempt the worker runs
// is set up in it by newTxn and emptied out of it by finish. It
// implements proc.OpCtx.
type Txn struct {
	w    *Worker
	e    *Engine
	prog *proc.Program
	env  *proc.Env
	rw   RWSet
	runs []OpRun // access cache, one per op of prog; the slab is reused, no entry's accesses are
	// frame holds the first smallSet elements of every attempt (take);
	// the worker allocates it once, and reset recycles what was used.
	frame *[smallSet]Element

	mode   execMode
	cur    *OpRun
	cursor int // replay cursor into cur.accesses
	nacc   int // accesses registered for cur in this (re)run

	// frontier is the index of the element currently being validated
	// (-1 before validation starts). Membership inserts at or below
	// the frontier must take their lock no-wait (§4.2.2).
	frontier int

	locked []*Element // elements whose record meta-lock we hold

	// pol is this attempt's rung policy, copied from the engine's
	// precomputed rungs at attempt start: every place the protocols
	// differ reads one of its fields.
	pol policy

	healOps int // operations restored in this attempt (metrics)

	// Phase clocks (Fig. 19, traces). They are boundary timestamps:
	// each phase ends where the next begins (lap), so a fully timed
	// commit costs four clock reads per attempt, not a start/stop pair
	// per phase. start is the attempt's first instant, mark the last
	// boundary; timed is off, and no attempt reads the clock, unless
	// detailed metrics or a trace consume the result. healDur is the
	// share of the validate phase spent inside healing passes.
	start, mark time.Time
	timed       bool
	phase       [metrics.NumPhases]time.Duration
	healDur     time.Duration
}

// newTxn starts an attempt in w's frame, keeping nothing of the last
// one but its storage, and of env nothing but the arguments.
func newTxn(w *Worker, prog *proc.Program, env *proc.Env, pol *policy) *Txn {
	t := &w.txn
	t.reset()
	env.Start(prog)
	*t = Txn{w: w, e: w.e, prog: prog, env: env, rw: t.rw, runs: t.runs, locked: t.locked, frame: t.frame,
		frontier: -1, pol: *pol, timed: w.e.opts.DetailedMetrics || w.traceOn}
	if t.timed {
		t.start = time.Now()
		t.mark = t.start
	}
	if cap(t.runs) < len(prog.Ops) {
		t.runs = make([]OpRun, len(prog.Ops))
	}
	t.runs = t.runs[:len(prog.Ops)]
	for i, op := range prog.Ops {
		t.runs[i].op = op
	}
	return t
}

// reset drops every reference into the attempt the frame ran, so that
// nothing reachable from an idle worker pins a retired Record or a
// superseded row image.
func (t *Txn) reset() {
	for i := range min(len(t.rw.elems), smallSet) {
		t.frame[i].recycle()
	}
	t.rw.reset()
	clear(t.locked)
	t.locked = t.locked[:0]
	clear(t.runs)
	t.runs = t.runs[:0]
	t.prog, t.env, t.cur = nil, nil, nil
}

// lap closes the current phase: it returns the time since the last
// phase boundary and moves the boundary to now (zero when nothing
// consumes phase timings).
func (t *Txn) lap() time.Duration {
	if !t.timed {
		return 0
	}
	now := time.Now()
	d := now.Sub(t.mark)
	t.mark = now
	return d
}

// Env implements proc.OpCtx.
func (t *Txn) Env() *proc.Env { return t.env }

// readPhase executes all operations in program order.
func (t *Txn) readPhase() error {
	t.mode = modeExec
	var err error
	for i := range t.runs {
		t.cur = &t.runs[i]
		t.nacc = 0
		if err = t.cur.op.Run(t); err != nil {
			break // application abort, or a lock-at-access no-wait conflict
		}
		if t.pol.yield {
			runtime.Gosched()
		}
	}
	t.phase[metrics.PhaseRead] = t.lap()
	if t.w.traceOn {
		t.w.trace.ExecUS += int64(t.phase[metrics.PhaseRead] / time.Microsecond)
		t.w.trace.Proto = uint8(t.pol.proto)
	}
	return err
}

// validateAndCommit is the back half of the attempt pipeline: lock and
// validate per the policy (healing or restarting on a stale read),
// then install. A chaos stall drawn at the pre-validation checkpoint
// lands in the validate phase, which is exactly the window it
// stretches.
func (t *Txn) validateAndCommit() error {
	err := t.w.chaosPoint(fault.PreValidation)
	if err == nil {
		err = t.validate()
	}
	t.phase[metrics.PhaseHeal] = t.healDur
	t.phase[metrics.PhaseValidate] = t.lap() - t.healDur
	if t.w.traceOn {
		t.w.trace.ValidateUS += int64(t.phase[metrics.PhaseValidate] / time.Microsecond)
		t.w.trace.HealUS += int64(t.healDur / time.Microsecond)
	}
	if err != nil {
		return err
	}
	err = t.commit()
	t.phase[metrics.PhaseWrite] = t.lap()
	if t.w.traceOn {
		t.w.trace.CommitUS += int64(t.phase[metrics.PhaseWrite] / time.Microsecond)
	}
	return err
}

// seqFor derives a stable fold-order sequence for the n-th access of
// an operation: program order across operations, registration order
// within one.
func seqFor(opID, n int) int { return opID<<20 | n }

// acquire returns the element for (tab, key), creating the record as
// an invisible dummy when absent (§4.7.1).
func (t *Txn) acquire(tab *storage.Table, key storage.Key, write bool) (*Element, error) {
	rec, created := tab.GetOrCreateDummy(key) // arrives pinned
	return t.join(tab, rec, true, created, write)
}

// join returns rec's element, adding it to the read/write set on
// first touch: one pin per element (pinned says whether the caller
// already took it — point lookups do, scans do not), the R-timestamp
// captured strictly before any data load, the membership insertion of
// a key-dependent re-execution (§4.2.2), and the policy's
// lock-at-access.
func (t *Txn) join(tab *storage.Table, rec *storage.Record, pinned, created, write bool) (*Element, error) {
	el := t.rw.lookup(rec)
	if el != nil {
		if pinned {
			rec.Unpin() // the element already holds one pin
		}
		el.removed = false // back in the footprint
	} else {
		if !pinned {
			rec.Pin()
		}
		if el = t.take(); el == nil {
			el = new(Element)
		}
		el.rec, el.tab, el.rank, el.createdDummy = rec, tab, tab.Rank(), created
		el.rts, _, el.seenVisible = rec.Meta()
		t.rw.add(el)
		if t.mode == modeReexec && t.rw.sorted {
			// Membership update: if the new element sorts at or before
			// the validation frontier, its lock must be taken now,
			// no-wait (Algorithm 2); otherwise the main validation loop
			// will reach it.
			if idx := t.rw.indexOf(el); idx <= t.frontier {
				if !t.tryLockBounded(el) {
					return nil, errRestart
				}
				// We hold the lock, so the fresh read below is
				// consistent by construction.
				el.rts, _, el.seenVisible = rec.Meta()
				t.frontier++ // the frontier element shifted right by the insert
			}
		}
	}
	if t.pol.lockAtAccess {
		if err := t.tplLock(el, write); err != nil {
			return nil, err
		}
		// 2PL never validates: the footprint's version is the stamp of
		// the image read under the lock, not one replaced while waiting.
		el.rts, _, el.seenVisible = rec.Meta()
	}
	return el, nil
}

// take returns the frame's element for the attempt's next record, or
// nil once the footprint outgrows the frame. The n-th element joined is
// frame[n], so an attempt uses frame[:min(len(rw.elems), smallSet)].
func (t *Txn) take() *Element {
	if n := len(t.rw.elems); n < smallSet {
		return &t.frame[n]
	}
	return nil
}

// lockAttempts bounds the no-wait lock acquisition of a healing
// membership update before the transaction aborts, the "upper bound"
// §4.2.2 suggests. A sweep of the bound from 1 to 64 (TPC-C, WH=4,
// address order; 16 workers on one core, 2 on two CPUs) read a restart
// rate of 0 at every value and throughput flat within noise:
// membership collisions are too rare for the bound to matter, so it
// is fixed rather than configured.
const lockAttempts = 4

// tryLockBounded attempts the no-wait lock acquisition of the healing
// membership update, at most lockAttempts times.
func (t *Txn) tryLockBounded(el *Element) bool {
	for range lockAttempts {
		if el.rec.TryLock() {
			el.locked = true
			t.locked = append(t.locked, el)
			return true
		}
	}
	return false
}

// lockElement spin-locks an element in the main validation loop
// (safe: global order) and records it for release.
func (t *Txn) lockElement(el *Element) {
	el.rec.Lock()
	el.locked = true
	t.locked = append(t.locked, el)
}

// visibleTo computes the record's visibility from this transaction's
// perspective, folding in buffered inserts and deletes.
func visibleTo(el *Element) bool {
	if el.isInsert {
		return true
	}
	if el.isDelete {
		return false
	}
	return el.rec.Visible()
}

// viewAt returns the element's row image and visibility as observed
// by a read at fold position beforeSeq: the record's current global
// copy overlaid with only those buffered effects issued by
// program-order-earlier operations. Healing replays depend on this
// bound — a restored early read must not observe the transaction's
// own later writes.
func (t *Txn) viewAt(el *Element, beforeSeq int) (storage.Tuple, bool) {
	return t.viewOn(el, beforeSeq, el.rec.Tuple(), el.rec.Visible())
}

// viewOn is viewAt over a caller-preloaded global copy. The caller
// must pass the very load it hands to noteRead: validating one load
// while the operation body consumed another lets a concurrent commit
// slip between them and certify a value that was never used.
func (t *Txn) viewOn(el *Element, beforeSeq int, base storage.Tuple, visible bool) (storage.Tuple, bool) {
	if el.isInsert && el.insertSeq < beforeSeq {
		base = el.insertTuple
		visible = true
	}
	if el.isDelete && el.deleteSeq < beforeSeq {
		visible = false
	}
	return el.applyWritesBefore(base, beforeSeq), visible
}

// Read implements proc.OpCtx.
func (t *Txn) Read(table string, key storage.Key, cols []int) (storage.Tuple, bool, error) {
	if t.mode == modeReplay {
		entry, err := t.nextEntry(accessPoint, false)
		if err != nil {
			return nil, false, err
		}
		if err := t.matchPoint(entry, table, key); err != nil {
			return nil, false, err
		}
		img, vis := t.viewAt(entry.elem, entry.seq)
		return img, vis, nil
	}
	tab, err := t.table(table)
	if err != nil {
		return nil, false, err
	}
	el, err := t.acquire(tab, key, false)
	if err != nil {
		return nil, false, err
	}
	seq := seqFor(t.cur.op.ID, t.nacc)
	cur := el.rec.Tuple() // single load: consumed, copied, and validated together
	img, vis := t.viewOn(el, seq, cur, el.rec.Visible())
	el.noteRead(t.bookmark(), cols, cur, t.pol.readCopies)
	t.register(accessEntry{kind: accessPoint, elem: el, seq: seq})
	return img, vis, nil
}

// Write implements proc.OpCtx.
func (t *Txn) Write(table string, key storage.Key, cols []int, vals []storage.Value) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("core: write cols/vals mismatch (%d vs %d)", len(cols), len(vals))
	}
	if t.mode == modeReplay {
		entry, err := t.nextEntry(accessPoint, true)
		if err != nil {
			return err
		}
		if err := t.matchPoint(entry, table, key); err != nil {
			return err
		}
		if err := checkCols(entry.elem.tab, cols); err != nil {
			return err
		}
		// The op's previous writes were retracted before replay;
		// re-buffer with the entry's original fold position.
		entry.elem.addWrite(t.cur.op.ID, entry.seq, cols, vals)
		return nil
	}
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	if err := checkCols(tab, cols); err != nil {
		return err
	}
	el, err := t.acquire(tab, key, true)
	if err != nil {
		return err
	}
	seq := seqFor(t.cur.op.ID, t.nacc)
	if _, vis := t.viewAt(el, seq); !vis {
		return proc.UserAbort(fmt.Sprintf("write to non-existent record %s[%d]", table, key))
	}
	el.addWrite(t.cur.op.ID, seq, cols, vals)
	t.register(accessEntry{kind: accessPoint, elem: el, seq: seq, isWrite: true})
	return nil
}

// Insert implements proc.OpCtx.
func (t *Txn) Insert(table string, key storage.Key, tuple storage.Tuple) error {
	if t.mode == modeReplay {
		entry, err := t.nextEntry(accessPoint, true)
		if err != nil {
			return err
		}
		if err := t.matchPoint(entry, table, key); err != nil {
			return err
		}
		entry.elem.insertTuple = tuple
		return nil
	}
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	if len(tuple) != len(tab.Schema().Columns) {
		return fmt.Errorf("core: insert into %s: tuple width %d != %d: %w", table, len(tuple), len(tab.Schema().Columns), ErrSchema)
	}
	el, err := t.acquire(tab, key, true)
	if err != nil {
		return err
	}
	if visibleTo(el) {
		if t.pol.lockAtAccess {
			// 2PL holds the record lock, so the observation is
			// current: the key exists.
			return proc.UserAbort(fmt.Sprintf("duplicate key %s[%d]", table, key))
		}
		// Optimistic protocols defer the verdict to validation: an
		// unchanged record there is a genuine duplicate; a changed
		// one means our key came from a stale read (e.g. a raced
		// DISTRICT.next_o_id) and healing or a restart resolves it.
		el.insertConflict = true
	}
	if el.isDelete {
		// Own delete followed by re-insert: fold into an update.
		el.isDelete = false
		seq := seqFor(t.cur.op.ID, t.nacc)
		cols := make([]int, len(tuple))
		for i := range cols {
			cols[i] = i
		}
		el.addWrite(t.cur.op.ID, seq, cols, tuple)
		t.register(accessEntry{kind: accessPoint, elem: el, seq: seq, isWrite: true})
		return nil
	}
	el.mode |= ModeWrite
	el.isInsert = true
	el.insertTuple = tuple
	el.insertSeq = seqFor(t.cur.op.ID, t.nacc)
	t.register(accessEntry{kind: accessPoint, elem: el, seq: el.insertSeq, isWrite: true})
	return nil
}

// Delete implements proc.OpCtx.
func (t *Txn) Delete(table string, key storage.Key) error {
	if t.mode == modeReplay {
		entry, err := t.nextEntry(accessPoint, true)
		if err != nil {
			return err
		}
		return t.matchPoint(entry, table, key)
	}
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	el, err := t.acquire(tab, key, true)
	if err != nil {
		return err
	}
	if !visibleTo(el) {
		return proc.UserAbort(fmt.Sprintf("delete of non-existent record %s[%d]", table, key))
	}
	if el.isInsert {
		// Deleting our own uncommitted insert cancels it.
		el.isInsert = false
		el.insertTuple = nil
		el.dropWrites(-1) // keep writes of other ops; -1 drops none
	} else {
		el.mode |= ModeWrite
		el.isDelete = true
		el.deleteSeq = seqFor(t.cur.op.ID, t.nacc)
	}
	t.register(accessEntry{kind: accessPoint, elem: el, seq: seqFor(t.cur.op.ID, t.nacc), isWrite: true})
	return nil
}

// Scan implements proc.OpCtx.
func (t *Txn) Scan(table string, lo, hi storage.Key, limit int, fn func(key storage.Key, row storage.Tuple) bool) error {
	return t.scan(table, "", lo, hi, "", "", limit, fn)
}

// ScanSec implements proc.OpCtx.
func (t *Txn) ScanSec(table, index string, lo, hi string, limit int, fn func(pk storage.Key, row storage.Tuple) bool) error {
	return t.scan(table, index, 0, 0, lo, hi, limit, fn)
}

// scan is the body Scan and ScanSec share: the ordered index over
// [lo, hi] when index is "", else the named secondary over [slo, shi].
// A replay feeds fn the cached elements. Otherwise the walk hands the
// scan one leaf at a time: the leaf's Ref joins the observations
// phantom validation re-checks (§4.7.2), then its records join the
// read set in order.
func (t *Txn) scan(table, index string, lo, hi storage.Key, slo, shi string, limit int, fn func(storage.Key, storage.Tuple) bool) error {
	if t.mode == modeReplay {
		entry, err := t.nextEntry(accessScan, false)
		if err != nil {
			return err
		}
		for _, el := range entry.scanElems {
			if img, vis := t.viewAt(el, entry.seq); vis && !fn(el.rec.Key(), img) {
				break
			}
		}
		return nil
	}
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	seq, sa := seqFor(t.cur.op.ID, t.nacc), &ScanAccess{op: t.cur}
	var elems []*Element
	seen := 0
	leaf := func(ref btree.ScanRef, recs []*storage.Record) bool {
		sa.refs = append(sa.refs, ref)
		for _, rec := range recs {
			el, aerr := t.join(tab, rec, false, false, false) // captures rts before the data load
			if aerr != nil {
				err = aerr
				return false
			}
			cur := rec.Tuple() // single load: consumed, copied, validated together
			el.noteRead(t.bookmark(), nil, cur, t.pol.readCopies)
			elems = append(elems, el)
			img, vis := t.viewOn(el, seq, cur, rec.Visible())
			if !vis {
				// Invisible records join the read set (their visibility
				// flip at a concurrent commit changes their timestamp,
				// which validation detects) but are not exposed.
				continue
			}
			seen++
			if !fn(rec.Key(), img) || seen == limit {
				return false
			}
		}
		return true
	}
	if index == "" {
		if !tab.Schema().Ordered {
			return fmt.Errorf("core: table %s has no ordered index", table)
		}
		tab.RangeWalk(lo, hi, func(l *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool { return leaf(l.Ref(), recs) })
	} else if idx := tab.SecondaryIndexID(index); idx >= 0 {
		tab.SecondaryWalk(idx, slo, shi, func(l *btree.Leaf[string, *storage.Record], recs []*storage.Record) bool { return leaf(l.Ref(), recs) })
	} else {
		return fmt.Errorf("core: table %s has no index %q", table, index)
	}
	if err != nil {
		return err
	}
	t.rw.scans = append(t.rw.scans, sa)
	t.register(accessEntry{kind: accessScan, scan: sa, scanElems: elems, seq: seq})
	return nil
}

// bookmark returns the current op for bookmark registration, or nil
// when the access cache is not maintained.
func (t *Txn) bookmark() *OpRun {
	if !t.pol.heal {
		return nil
	}
	return t.cur
}

// register appends an access-cache entry for the current op.
func (t *Txn) register(e accessEntry) {
	if e.elem != nil {
		e.elem.uses++
	}
	for _, el := range e.scanElems {
		el.uses++
	}
	if e.seq == 0 && e.kind == accessPoint {
		e.seq = seqFor(t.cur.op.ID, t.nacc)
	}
	t.nacc++
	if !t.pol.heal {
		return
	}
	t.cur.accesses = append(t.cur.accesses, e)
}

// nextEntry advances the replay cursor, checking that the replayed
// access still matches the cached one in kind and read/write class. A
// mismatch means the operation's control flow branched differently on
// the healed values — the access cache is useless then, and the
// transaction falls back to abort-and-restart.
func (t *Txn) nextEntry(kind accessKind, isWrite bool) (*accessEntry, error) {
	if t.cursor >= len(t.cur.accesses) {
		return nil, errDiverged
	}
	e := &t.cur.accesses[t.cursor]
	t.cursor++
	if e.kind != kind || e.isWrite != isWrite {
		return nil, errDiverged
	}
	return e, nil
}

// matchPoint additionally verifies a replayed point access targets
// the same record as the cached entry.
func (t *Txn) matchPoint(e *accessEntry, table string, key storage.Key) error {
	if e.elem == nil || e.elem.rec.Key() != key || e.elem.tab.Schema().Name != table {
		return errDiverged
	}
	return nil
}

// checkCols refuses a write to a column outside tab's row before
// anything is acquired: commit would index past the row with the
// write set's locks held.
func checkCols(tab *storage.Table, cols []int) error {
	width := len(tab.Schema().Columns)
	for _, c := range cols {
		if c < 0 || c >= width {
			return fmt.Errorf("core: write to %s column %d: the row has %d columns: %w", tab.Schema().Name, c, width, ErrSchema)
		}
	}
	return nil
}

func (t *Txn) table(name string) (*storage.Table, error) {
	tab, ok := t.e.catalog.Table(name)
	if !ok {
		return nil, fmt.Errorf("core: no such table %q", name)
	}
	return tab, nil
}

// finish releases locks and pins, retires dummies and empties the
// frame; called on both commit and abort paths, after the write phase
// if any.
func (t *Txn) finish(committed bool) {
	for _, el := range t.locked {
		el.rec.Unlock()
		el.locked = false
	}
	for _, el := range t.rw.elems {
		rec := el.rec
		if el.tplMode != tplNone {
			releaseTPL(el)
		}
		if el.createdDummy && (!committed || el.removed || !el.isInsert) {
			// A dummy we materialized that did not become a real
			// record: hand it to the GC (it reclaims once unpinned).
			t.e.gc.Retire(rec)
		}
		rec.Unpin()
	}
	t.reset()
}
