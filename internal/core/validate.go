package core

import (
	"fmt"

	"thedb/internal/obs"
	"thedb/internal/proc"
)

// validate is the lock/validate stage of the attempt pipeline. Which
// records get locked, and when a stale read is looked for, is the
// policy's; the order locks are taken in is the engine's, for every
// policy alike.
func (t *Txn) validate() error {
	switch {
	case t.pol.lockAtAccess:
		// Every lock was taken during the read phase, so every record
		// observation is still current. A scanned range holds no lock:
		// its leaves are re-checked here, with every lock still held,
		// and a change restarts like a lock conflict. An insert that
		// lands after the check serializes after this transaction.
		for _, sa := range t.rw.scans {
			if !sa.removed && sa.changed() {
				return t.phantom()
			}
		}
		return nil
	case t.pol.writeSetOnly:
		return t.validateSilo()
	default:
		return t.validateLocked()
	}
}

// validateLocked is the paper's Algorithm 1 without the write phase,
// and with it conventional OCC validation (THEDB-OCC, §5), which is
// the same loop with healing off: lock the read/write set in the
// global validation order, compare each read element's timestamp
// against its R-timestamp, and on a mismatch heal or — where the
// policy carries no access cache to heal from — signal
// abort-and-restart. Afterwards it validates the node set (phantoms,
// §4.7.2). With validation off (THEDB-OCC⁻) the elements are locked
// and nothing is checked, which measures the peak throughput
// attainable without aborts (Fig. 8) at the cost of serializability.
//
// For independent transactions (§4.6) the effect under healing is the
// merged validate+write fast path: with no key dependencies the
// membership never changes, healing cannot abort, and the transaction
// is guaranteed to commit.
func (t *Txn) validateLocked() error {
	t.rw.sort()
	for t.frontier = 0; t.frontier < len(t.rw.elems); t.frontier++ {
		el := t.rw.elems[t.frontier]
		if el.locked {
			// Locked during a membership update; its content was
			// (re)read under the lock, hence consistent.
			continue
		}
		if el.removed {
			continue
		}
		// Blocking while holding earlier locks is safe by construction:
		// the sort above imposed the engine's one global order
		// (Options.Order, the only order an RWSet can have), and every
		// rung of every transaction on the engine sorts by it, so every
		// thread stacks record locks in the same sequence (§4.2.1).
		t.lockElement(el)
		if !t.pol.validate {
			continue
		}
		if el.isInsert {
			// §4.7.1 scenario 3: another transaction committed into
			// our dummy slot first; genuine duplicates abort, stale
			// keys restart (the stale source heals first under tree
			// order, replacing this element before we reach it).
			if err := t.checkInsertElement(el); err != nil {
				return err
			}
			continue
		}
		if el.mode&ModeRead == 0 {
			continue
		}
		ts, _, vis := el.rec.Meta()
		if ts == el.rts {
			continue
		}
		// Inconsistent read. First dismiss false invalidations
		// (§4.5): a concurrent write that did not touch the columns
		// we read.
		if vis == el.seenVisible && el.falseInvalidation(el.rec.Tuple()) {
			el.rts = ts
			t.w.m.FalseInval.Add(1)
			t.w.event(obs.KFalseInval, uint64(el.rec.Key()), uint64(el.tab.ID()))
			continue
		}
		t.staleRead(el)
		if !t.pol.heal {
			return errRestart
		}
		if err := t.heal(el, nil); err != nil {
			return err
		}
	}
	t.frontier = len(t.rw.elems)
	if !t.pol.validate {
		return nil
	}

	// Node-set validation: structural index changes in scanned
	// ranges are healed by re-executing the scan operation. Healing
	// may add scans, so iterate to a fixpoint (bounded; beyond the
	// bound abort-and-restart is always safe).
	for round := 0; ; round++ {
		if round > 64 {
			return errRestart
		}
		changed := false
		for i := 0; i < len(t.rw.scans); i++ {
			sa := t.rw.scans[i]
			if sa.removed || !sa.changed() {
				continue
			}
			changed = true
			if !t.pol.heal {
				return t.phantom()
			}
			if err := t.heal(nil, sa.op); err != nil {
				return err
			}
		}
		if !changed {
			return nil
		}
	}
}

// validateSilo is Silo's commit protocol (THEDB-SILO): lock
// only the write set, then validate the read set without locking — a
// read is consistent when its timestamp is unchanged and the record is
// not locked by another transaction. It is the one loop that cannot
// fold into validateLocked: reads may only be checked once every
// write lock is held. This avoids tracking anti-dependencies and locks
// less, but a transaction discovers conflicts only after buying all
// its write locks, which is why it wastes more work under contention
// (§5.1).
func (t *Txn) validateSilo() error {
	t.rw.sort()
	for _, el := range t.rw.elems {
		if el.mode&ModeWrite != 0 {
			t.lockElement(el)
		}
	}
	if !t.pol.validate {
		return nil
	}
	for _, el := range t.rw.elems {
		if el.isInsert {
			if err := t.checkInsertElement(el); err != nil {
				return err
			}
			continue
		}
		if el.mode&ModeRead == 0 {
			continue
		}
		ts, locked, _ := el.rec.Meta()
		if ts != el.rts || (locked && !el.locked) {
			t.staleRead(el)
			return errRestart
		}
	}
	for _, sa := range t.rw.scans {
		if sa.changed() {
			return t.phantom()
		}
	}
	return nil
}

// staleRead reports a failed read validation of el to the flight
// recorder and the contention sketch.
func (t *Txn) staleRead(el *Element) {
	t.w.event(obs.KValidationFail, uint64(el.rec.Key()), uint64(el.tab.ID()))
	if c := t.e.cont; c != nil {
		c.Touch(el.tab.ID(), uint64(el.rec.Key()), obs.TouchValidationFail)
	}
}

// phantom reports a structural change in a scanned range that the
// policy cannot heal, and restarts.
func (t *Txn) phantom() error {
	t.w.event(obs.KValidationFail, 0, 0) // 0,0: structural (phantom)
	return errRestart
}

// checkInsertElement validates an insert element under its lock
// (§4.7.1 scenario 3 plus the stale-key refinement documented at
// Txn.Insert).
func (t *Txn) checkInsertElement(el *Element) error {
	ts, _, vis := el.rec.Meta()
	if el.insertConflict && vis && ts == el.rts {
		return proc.UserAbort(fmt.Sprintf("duplicate key %s[%d]", el.tab.Schema().Name, el.rec.Key()))
	}
	if vis || ts != el.rts {
		return errRestart
	}
	return nil
}
