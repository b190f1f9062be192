package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"thedb/internal/btree"
	"thedb/internal/mvcc"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// ErrReadOnlyTxn reports a write attempted inside a snapshot
// transaction. Snapshot transactions resolve every read against the
// version chains and commit with zero validation, which is only sound
// because they cannot have written anything.
var ErrReadOnlyTxn = errors.New("core: snapshot transaction is read-only")

// ErrSnapshotSecondaryScan reports a secondary-index scan attempted
// inside a snapshot transaction. Secondary entries are not versioned,
// so the index cannot answer as of the snapshot (DESIGN.md §4.6).
var ErrSnapshotSecondaryScan = errors.New("core: snapshot transaction cannot scan a secondary index")

// snapshotTS computes a snapshot timestamp: the boundary MakeTS(F,0)-1
// under the worker-registration epoch floor, ratcheted through the
// monotone snapshot floor. Every commit stamped at or below the result
// is fully installed; every in-flight commit is stamped above it
// (EpochManager.VisibleFloor); and the result never falls below a
// watermark the version GC has already reclaimed against (the
// ratchet). See DESIGN.md §4.6.
func (e *Engine) snapshotTS() uint64 {
	return e.snapFloor.Raise(storage.MakeTS(e.epoch.VisibleFloor(), 0) - 1)
}

// versionWatermark supplies the GC's reclamation bound: no live or
// future snapshot can read at or below it. Raising the floor before
// scanning the pins orders this against concurrent pinners — see
// mvcc.Watermark.
func (e *Engine) versionWatermark() uint64 {
	return mvcc.Watermark(&e.snapFloor, e.snap, storage.MakeTS(e.epoch.VisibleFloor(), 0)-1)
}

// snapshotEpochLag measures how far the oldest pinned snapshot trails
// the current epoch — the /metrics gauge that surfaces a stuck reader
// blocking version GC. Zero when nothing is pinned or the oldest pin
// is current.
func (e *Engine) snapshotEpochLag() uint32 {
	s, ok := e.snap.Oldest()
	if !ok {
		return 0
	}
	// A boundary MakeTS(F,0)-1 splits as epoch F-1 with an all-ones
	// sequence half; the snapshot logically belongs to floor F.
	pe, _ := storage.SplitTS(s)
	cur := e.epoch.Current()
	if pe+1 >= cur {
		return 0
	}
	return cur - (pe + 1)
}

// RunSnapshot executes the named stored procedure as a read-only
// snapshot transaction: it pins an epoch-consistent snapshot at start,
// resolves every read against the record version visible at that
// snapshot, and commits without validation — no read-set tracking, no
// healing, no aborts, and no interference with concurrent writers.
// Write primitives fail with ErrReadOnlyTxn. Same single-goroutine
// contract as Run.
func (w *Worker) RunSnapshot(procName string, args ...storage.Value) (*proc.Env, error) {
	spec, err := w.e.lookup(procName)
	if err != nil {
		return nil, err
	}
	return w.runSnapshot(spec, args)
}

// TransactSnapshot runs fn as an anonymous read-only snapshot
// transaction through the usual OpCtx primitives. Unlike Transact, fn
// runs exactly once — snapshot transactions never restart.
func (w *Worker) TransactSnapshot(fn func(ctx proc.OpCtx) error) error {
	_, err := w.runSnapshot(closureSpec("snapshot", fn), nil)
	return err
}

// runSnapshot drives one snapshot transaction: pin, execute every
// operation against the snapshot, unpin. There is no retry loop and no
// epoch registration — a snapshot transaction cannot invalidate, and
// registering it would drag the visible floor (and with it writer GC)
// behind a long scan for no benefit; the SnapshotEpochLag gauge tracks
// long readers instead.
func (w *Worker) runSnapshot(spec *proc.Spec, args []storage.Value) (*proc.Env, error) {
	start := time.Now()
	env := &w.senv
	env.Reset(spec, args)
	prog, err := w.compile(spec, env)
	if err != nil {
		return nil, err
	}
	if w.e.tracer != nil {
		w.beginTrace(start, spec.Name)
	}
	s := w.e.snapshotTS()
	// Publish the pin, then re-read the ratchet: if the floor moved
	// above s, a GC pass that missed this pin may have reclaimed up to
	// the new floor, so adopt it (raising a snapshot to a newer valid
	// boundary is always sound; the stale pin only under-reported,
	// which is conservative).
	for {
		w.e.snap.Pin(w.id, s)
		if r := w.e.snapFloor.Load(); r > s {
			s = r
			continue
		}
		break
	}
	defer w.e.snap.Unpin(w.id)

	st := &w.snap
	st.env, st.at = env, s
	env.Start(prog)
	interleave := w.e.opts.Interleave
	for _, op := range prog.Ops {
		if err := op.Run(st); err != nil {
			w.m.Aborted.Add(1)
			w.event(obs.KAbort, uint64(obs.AbortUser), 0)
			if w.traceOn {
				w.finishTrace(obs.TraceAborted, time.Since(start), 1)
			}
			return env, err
		}
		if interleave {
			runtime.Gosched()
		}
	}
	lat := time.Since(start)
	w.m.Committed.Add(1)
	w.m.SnapshotReads.Add(1)
	w.m.ObserveLatency(lat)
	w.event(obs.KCommit, s, uint64(lat/time.Microsecond))
	if w.traceOn {
		w.finishTrace(obs.TraceCommitted, lat, 1)
	}
	return env, nil
}

// snapTxn implements proc.OpCtx for snapshot transactions. Reads
// resolve through Record.SnapshotAt at the pinned timestamp; nothing
// is registered, copied, pinned or locked, and the write primitives
// are rejected. Long scans therefore cost writers nothing: they touch
// no record metadata and hold no locks a writer could conflict with.
// Like Txn, a worker owns one and re-points it per transaction.
type snapTxn struct {
	e   *Engine
	w   *Worker
	env *proc.Env
	at  uint64
}

// Env implements proc.OpCtx.
func (t *snapTxn) Env() *proc.Env { return t.env }

func (t *snapTxn) table(name string) (*storage.Table, error) {
	tab, ok := t.e.catalog.Table(name)
	if !ok {
		return nil, fmt.Errorf("core: no such table %q", name)
	}
	return tab, nil
}

// Read implements proc.OpCtx against the snapshot.
func (t *snapTxn) Read(table string, key storage.Key, cols []int) (storage.Tuple, bool, error) {
	tab, err := t.table(table)
	if err != nil {
		return nil, false, err
	}
	rec, ok := tab.Peek(key)
	if !ok {
		// Never indexed, or unlinked by the GC — the latter only once
		// the delete stamp passed the watermark, which is at or below
		// this snapshot, so "absent" is the snapshot-correct answer.
		return nil, false, nil
	}
	img, vis := rec.SnapshotAt(t.at)
	return img, vis, nil
}

// Write implements proc.OpCtx; snapshot transactions reject it.
func (t *snapTxn) Write(table string, key storage.Key, cols []int, vals []storage.Value) error {
	return fmt.Errorf("%w: write to %s[%d]", ErrReadOnlyTxn, table, key)
}

// Insert implements proc.OpCtx; snapshot transactions reject it.
func (t *snapTxn) Insert(table string, key storage.Key, tuple storage.Tuple) error {
	return fmt.Errorf("%w: insert into %s[%d]", ErrReadOnlyTxn, table, key)
}

// Delete implements proc.OpCtx; snapshot transactions reject it.
func (t *snapTxn) Delete(table string, key storage.Key) error {
	return fmt.Errorf("%w: delete from %s[%d]", ErrReadOnlyTxn, table, key)
}

// Scan implements proc.OpCtx: it walks the current ordered index, a
// leaf's run at a time, and resolves each record against the snapshot.
// Records inserted after the snapshot resolve to absent and are
// skipped; records deleted since stay reachable (the GC's unlink gate)
// and resolve to their pre-delete image. No leaf versions are recorded
// — snapshot scans never validate, so they need no phantom check.
func (t *snapTxn) Scan(table string, lo, hi storage.Key, limit int, fn func(key storage.Key, row storage.Tuple) bool) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	if tab.Schema() == nil || !tab.Schema().Ordered {
		return fmt.Errorf("core: table %s has no ordered index", table)
	}
	seen := 0
	tab.RangeWalk(lo, hi, func(_ *btree.Leaf[uint64, *storage.Record], recs []*storage.Record) bool {
		for _, rec := range recs {
			img, vis := rec.SnapshotAt(t.at)
			if !vis {
				continue
			}
			seen++
			if !fn(rec.Key(), img) || seen == limit {
				return false
			}
		}
		return true
	})
	return nil
}

// ScanSec implements proc.OpCtx by refusing: secondary entries track
// the current tuple image (updates re-key them at commit), so a row
// re-keyed out of [lo, hi] after the snapshot is no longer reachable
// from the range, and a walk would silently miss it.
func (t *snapTxn) ScanSec(table, index string, lo, hi string, limit int, fn func(pk storage.Key, row storage.Tuple) bool) error {
	tab, err := t.table(table)
	if err != nil {
		return err
	}
	if tab.SecondaryIndexID(index) < 0 {
		return fmt.Errorf("core: table %s has no index %q", table, index)
	}
	return fmt.Errorf("%w: %s.%s", ErrSnapshotSecondaryScan, table, index)
}
