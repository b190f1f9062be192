package core

import (
	"time"

	"thedb/internal/fault"
	"thedb/internal/oracle"
	"thedb/internal/wal"
)

// commit is Algorithm 3: compute the commit timestamp, install the
// buffered writes, stamp and log them, then release locks and pins.
// The caller must hold the locks required by its protocol (all
// elements for healing/OCC, the write set for Silo, 2PL locks for
// TPL).
func (t *Txn) commit() error {
	// Chaos checkpoint: the write phase is where lock hold times are
	// longest, so perturbations here hurt most; a restart drawn here
	// exercises the full-abort cleanup before anything is installed.
	if err := t.w.chaosPoint(fault.CommitApply); err != nil {
		return err
	}
	// (a) the commit timestamp must exceed the timestamp of every
	// record read or written; (b) it must exceed the worker's last;
	// (c) its high half carries at least the current global epoch.
	var maxSeen uint64
	for _, el := range t.rw.elems {
		if el.removed {
			continue
		}
		if ts := el.rec.Timestamp(); ts > maxSeen {
			maxSeen = ts
		}
	}
	w := t.w
	ts := nextCommitTS(w.id, len(t.e.workers), w.lastTS, maxSeen, t.e.epoch.Current())
	w.lastTS = ts

	logging := w.wlog != nil
	// WAL-append time is the only trace phase measured below commit
	// granularity: commits never wait for fsync (group commit syncs a
	// sealed epoch two behind), so the appends are all the log costs a
	// transaction pays inline. Clock reads bracket each wlog call only
	// while the transaction is traced.
	timeWAL := logging && t.w.traceOn
	var walDur time.Duration
	var walT time.Time
	if timeWAL {
		walT = time.Now()
	}
	if logging {
		if err := w.wlog.BeginCommit(ts); err != nil {
			return err
		}
	}
	if timeWAL {
		walDur += time.Since(walT)
	}
	valueLog := logging && t.e.opts.Logger.Mode() == wal.ValueLogging

	for _, el := range t.rw.elems {
		if el.removed || !el.hasWrites() {
			continue
		}
		rec := el.rec
		switch {
		case el.isDelete:
			if rec.InstallVersion(ts) {
				t.e.gc.TrackVersions(rec)
				w.m.VersionsInstalled.Add(1)
			}
			rec.SetVisible(false)
			rec.SetTimestamp(ts)
			t.e.gc.Retire(rec)
			if valueLog {
				if timeWAL {
					walT = time.Now()
				}
				if err := w.wlog.LogDelete(ts, el.tab.ID(), rec.Key()); err != nil {
					return err
				}
				if timeWAL {
					walDur += time.Since(walT)
				}
			}
		case el.isInsert:
			tuple := el.applyWrites(el.insertTuple)
			rec.SetTuple(tuple)
			rec.SetTimestamp(ts)
			rec.SetVisible(true)
			el.tab.IndexSecondaries(rec, tuple)
			if valueLog {
				if timeWAL {
					walT = time.Now()
				}
				if err := w.wlog.LogInsert(ts, el.tab.ID(), rec.Key(), tuple); err != nil {
					return err
				}
				if timeWAL {
					walDur += time.Since(walT)
				}
			}
		default:
			// Version-chain push (DESIGN.md §15): preserve the outgoing
			// image before SetTuple when the stamp crosses an epoch
			// boundary, so snapshot reads at the boundary still resolve
			// it. InstallVersion no-ops in the same-epoch common case.
			if rec.InstallVersion(ts) {
				t.e.gc.TrackVersions(rec)
				w.m.VersionsInstalled.Add(1)
			}
			old := rec.Tuple()
			tuple := el.applyWrites(old)
			rec.SetTuple(tuple)
			rec.SetTimestamp(ts)
			el.tab.ReindexSecondaries(rec, old, tuple)
			if valueLog {
				cols, vals := el.writeColumns()
				if timeWAL {
					walT = time.Now()
				}
				if err := w.wlog.LogWrite(ts, el.tab.ID(), rec.Key(), cols, vals); err != nil {
					return err
				}
				if timeWAL {
					walDur += time.Since(walT)
				}
			}
		}
	}
	if logging {
		if timeWAL {
			walT = time.Now()
		}
		if !valueLog {
			if err := w.wlog.LogCommand(ts, t.prog.Spec.Name, w.curArgs); err != nil {
				return err
			}
		}
		if err := w.wlog.EndCommit(ts); err != nil {
			return err
		}
		if timeWAL {
			walDur += time.Since(walT)
			w.trace.WALUS += int64(walDur / time.Microsecond)
		}
	}
	if orc := t.e.opts.Oracle; orc != nil {
		t.recordFootprint(orc, ts)
	}
	t.finish(true)
	return nil
}

// recordFootprint reports the committed transaction's read and write
// sets to the serializability oracle. Reads carry the version
// timestamp and visibility the transaction observed (an insert's
// implicit absence check included); writes carry the post-commit
// visibility. Called before finish so element state is still intact.
func (t *Txn) recordFootprint(orc *oracle.Recorder, ts uint64) {
	c := oracle.Commit{TS: ts, Worker: t.w.id}
	for _, el := range t.rw.elems {
		if el.removed {
			continue
		}
		k := oracle.Key{Table: el.tab.ID(), Key: uint64(el.rec.Key())}
		if el.mode&ModeRead != 0 || el.isInsert {
			c.Reads = append(c.Reads, oracle.Read{K: k, Version: el.rts, Visible: el.seenVisible})
		}
		if el.hasWrites() {
			c.Writes = append(c.Writes, oracle.Write{K: k, Visible: !el.isDelete})
		}
	}
	orc.Record(c)
}
