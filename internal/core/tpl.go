package core

import "runtime"

// tplMode values for Element.tplMode.
const (
	tplNone uint8 = iota
	tplR
	tplW
)

// tplLock acquires the 2PL lock for an element at access time
// (THEDB-2PL, §5): shared for reads, exclusive for writes, upgrading
// when a read is followed by a write. All acquisitions are no-wait —
// the most scalable deadlock-prevention policy per the paper's
// reference [61] — so any failure signals abort-and-restart.
//
// A 2PL rung under an optimistic engine (THEDB-HYBRID's second rung)
// runs beside optimistic transactions, which
// only respect the record meta lock; it therefore locks through the
// meta word (exclusive only) so the two serialize against each other.
func (t *Txn) tplLock(el *Element, write bool) error {
	if t.pol.metaLocks {
		if el.locked {
			return nil
		}
		// The hybrid's lock-based rerun follows Herlihy's scheme,
		// where the lock-based execution waits for locks. Waiting in
		// access order can deadlock, so spin only a bounded while
		// before giving up and restarting.
		for i := 0; i < 512; i++ {
			if el.rec.TryLock() {
				el.locked = true
				t.locked = append(t.locked, el)
				return nil
			}
			if i%8 == 7 {
				runtime.Gosched()
			}
		}
		return errRestart
	}
	rw := el.rec.RW()
	if !write {
		if el.tplMode != tplNone {
			return nil
		}
		if !rw.TryRLock() {
			return errRestart
		}
		el.tplMode = tplR
		return nil
	}
	switch el.tplMode {
	case tplW:
		return nil
	case tplR:
		if !rw.TryUpgrade() {
			return errRestart
		}
		el.tplMode = tplW
		return nil
	default:
		if !rw.TryWLock() {
			return errRestart
		}
		el.tplMode = tplW
		return nil
	}
}

// releaseTPL drops an element's 2PL lock (commit or abort).
func releaseTPL(el *Element) {
	switch el.tplMode {
	case tplR:
		el.rec.RW().RUnlock()
	case tplW:
		el.rec.RW().WUnlock()
	}
	el.tplMode = tplNone
}
