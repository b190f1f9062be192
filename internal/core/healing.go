package core

import (
	"container/heap"
	"errors"
	"time"

	"thedb/internal/fault"
	"thedb/internal/obs"
)

// restoreKind says how an operation must be restored.
type restoreKind uint8

const (
	restoreReplay restoreKind = iota // value-dependent: cached access set
	restoreReexec                    // key-dependent: fresh index lookups
)

// healQueue is a min-heap of operations ordered by bookmark (program
// order). Because dependency edges always point forward in program
// order, popping in ID order guarantees every parent is restored
// before any of its children, so each operation is restored exactly
// once per healing pass (§4.2.2).
type healQueue struct {
	runs []*OpRun
	kind map[*OpRun]restoreKind
}

func (h *healQueue) Len() int           { return len(h.runs) }
func (h *healQueue) Less(i, j int) bool { return h.runs[i].op.ID < h.runs[j].op.ID }
func (h *healQueue) Swap(i, j int)      { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *healQueue) Push(x any)         { h.runs = append(h.runs, x.(*OpRun)) }
func (h *healQueue) Pop() (x any)       { n := len(h.runs); x, h.runs = h.runs[n-1], h.runs[:n-1]; return x }
func (h *healQueue) push(r *OpRun, k restoreKind) {
	if prev, queued := h.kind[r]; queued {
		if k > prev {
			h.kind[r] = k
		}
		return
	}
	h.kind[r] = k
	heap.Push(h, r)
}

// heal is Algorithm 2: restore the non-serializable operations
// reachable through the program dependency graph from an inconsistent
// element el (whose record lock the caller holds) — or, when el is
// nil, from scan, an operation whose scanned range changed
// structurally and must be re-executed (phantom repair).
func (t *Txn) heal(el *Element, scan *OpRun) error {
	traced := t.w.traceOn
	if t.timed {
		defer t.timeHeal()()
	}
	var passStart time.Duration
	if traced {
		passStart = time.Since(t.w.traceStart)
	}
	t.w.m.Heals.Add(1)
	q := &healQueue{kind: make(map[*OpRun]restoreKind)}
	if el == nil {
		t.w.event(obs.KHealStart, 0, 0) // 0,0 marks a phantom repair
		q.push(scan, restoreReexec)
	} else {
		t.w.event(obs.KHealStart, uint64(el.rec.Key()), uint64(el.tab.ID()))
		if c := t.e.cont; c != nil {
			c.Touch(el.tab.ID(), uint64(el.rec.Key()), obs.TouchHealStart)
		}
		// Reload the inconsistent element under its lock: this is the
		// restoration basis for the bookmarked operation(s).
		el.rts, _, el.seenVisible = el.rec.Meta()
		el.refreshCopies(el.rec.Tuple())
		for _, run := range el.bookmarks {
			q.push(run, restoreReplay)
		}
	}
	before := t.healOps
	if err := t.drainHealQueue(q); err != nil {
		return err
	}
	t.w.event(obs.KHealEnd, uint64(t.healOps-before), uint64(t.frontier))
	if traced {
		t.w.tracePass(passStart, time.Since(t.w.traceStart), t.healOps-before, t.frontier)
	}
	return nil
}

// timeHeal accrues wall time spent inside healing into the
// transaction's heal-duration counter (Fig. 19 accounting).
func (t *Txn) timeHeal() func() {
	start := time.Now()
	return func() { t.healDur += time.Since(start) }
}

func (t *Txn) drainHealQueue(q *healQueue) error {
	for q.Len() > 0 {
		// Chaos checkpoint: between restorations, conflicting commits
		// may land and force healing over freshly healed state; a
		// restart drawn here abandons the repair mid-flight.
		if err := t.w.chaosPoint(fault.MidHealing); err != nil {
			return err
		}
		run := heap.Pop(q).(*OpRun)
		kind := q.kind[run]
		delete(q.kind, run)
		if err := t.restore(run, kind, q); err != nil {
			return err
		}
		t.w.m.HealedOps.Add(1)
		t.healOps++
		for _, c := range run.op.KeyChildren() {
			q.push(&t.runs[c.ID], restoreReexec)
		}
		for _, c := range run.op.ValChildren() {
			q.push(&t.runs[c.ID], restoreReplay)
		}
	}
	t.mode = modeExec
	return nil
}

// restore re-runs one operation. Value-dependent restoration replays
// against the cached access set (no index lookups); key-dependent
// restoration re-executes with fresh lookups and reconciles the
// read/write-set membership.
//
// Whenever restoration changes an element's buffered effects, the
// operations that later *read* that element through the database are
// non-serializable too — these read-after-write flows do not appear
// in the variable-level dependency graph, so restore enqueues the
// affected readers explicitly (notifyReaders).
func (t *Txn) restore(run *OpRun, kind restoreKind, q *healQueue) error {
	t.cur = run
	t.nacc = 0
	if kind == restoreReplay {
		// Retract the op's buffered writes; the replayed body
		// re-buffers them at their original fold positions.
		t.retractWrites(run)
		t.mode = modeReplay
		t.cursor = 0
		err := run.op.Run(t)
		if err == nil && t.cursor != len(run.accesses) {
			// The healed control flow performed fewer accesses than
			// the cached pattern: divergence.
			err = errDiverged
		}
		if errors.Is(err, errDiverged) {
			return errRestart
		}
		if err == nil {
			t.notifyReaders(run, q)
		}
		return err
	}

	// Key-dependent re-execution: retract every access the op made
	// (including its buffered writes — the retraction must happen
	// while the access list is still populated), run it afresh, then
	// drop elements that left the footprint.
	t.retractWrites(run)
	// Readers of the elements whose buffered effects we just
	// retracted see different values now.
	t.notifyReaders(run, q)
	old := run.accesses
	run.accesses = nil
	for i := range old {
		a := &old[i]
		switch a.kind {
		case accessPoint:
			a.elem.uses--
			removeBookmark(a.elem, run)
		case accessScan:
			a.scan.removed = true
			for _, sel := range a.scanElems {
				sel.uses--
				removeBookmark(sel, run)
			}
		}
	}
	t.mode = modeReexec
	err := run.op.Run(t)
	if err == nil {
		t.notifyReaders(run, q)
	}
	// Reconcile: elements no longer referenced by any access entry
	// leave the read/write set (§4.2.2 membership update). They stay
	// in the slice (and keep their lock if held — releasing early
	// would weaken two-phase locking) but are skipped everywhere.
	for i := range old {
		a := &old[i]
		drop := func(el *Element) {
			if el.uses == 0 && !el.removed {
				el.removed = true
				el.isInsert = false
				el.isDelete = false
				el.insertTuple = nil
				el.writes = el.writes[:0]
			}
		}
		if a.kind == accessPoint {
			drop(a.elem)
		} else {
			for _, sel := range a.scanElems {
				drop(sel)
			}
		}
	}
	return err
}

// notifyReaders enqueues, for every element run wrote (buffered
// effects in run.accesses), the bookmarked operations that read the
// element later in program order.
func (t *Txn) notifyReaders(run *OpRun, q *healQueue) {
	for i := range run.accesses {
		a := &run.accesses[i]
		if a.kind != accessPoint || !a.isWrite || a.elem == nil {
			continue
		}
		for _, reader := range a.elem.bookmarks {
			if reader.op.ID > run.op.ID {
				q.push(reader, restoreReplay)
			}
		}
	}
}

// retractWrites removes run's buffered writes from every element it
// wrote.
func (t *Txn) retractWrites(run *OpRun) {
	seen := map[*Element]bool{}
	for i := range run.accesses {
		a := &run.accesses[i]
		if a.kind == accessPoint && a.elem != nil && !seen[a.elem] {
			seen[a.elem] = true
			a.elem.dropWrites(run.op.ID)
		}
	}
}

func removeBookmark(el *Element, run *OpRun) {
	for i, b := range el.bookmarks {
		if b == run {
			el.bookmarks = append(el.bookmarks[:i], el.bookmarks[i+1:]...)
			return
		}
	}
}
