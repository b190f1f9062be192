package storage

import (
	"fmt"
	"sync/atomic"
)

// RWLock is a non-blocking reader/writer lock used by the THEDB-2PL
// baseline (§5: per-record two-phase locking with no-wait deadlock
// prevention). It is kept separate from the record meta word: the
// OCC-family protocols use the meta lock bit, 2PL uses this word, and
// an engine instance runs exactly one protocol, so the two never mix.
//
// State: 0 free, -1 held by a writer, n>0 held by n readers.
type RWLock struct {
	state atomic.Int32
}

// TryRLock attempts to take a shared lock without blocking.
func (l *RWLock) TryRLock() bool {
	for {
		s := l.state.Load()
		if s < 0 {
			return false
		}
		if l.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// RUnlock releases one shared lock. Releasing a lock that is not
// read-held panics: silently driving the state negative would make a
// later TryRLock spin on garbage and corrupt the 2PL baseline's
// bookkeeping, which every THEDB-2PL and THEDB-HYBRID run depends on.
func (l *RWLock) RUnlock() {
	for {
		s := l.state.Load()
		if s <= 0 {
			panic(fmt.Sprintf("storage: RUnlock of RWLock not read-held (state %d)", s))
		}
		if l.state.CompareAndSwap(s, s-1) {
			return
		}
	}
}

// TryWLock attempts to take the exclusive lock without blocking.
func (l *RWLock) TryWLock() bool { return l.state.CompareAndSwap(0, -1) }

// WUnlock releases the exclusive lock. Releasing a lock that is not
// writer-held panics rather than silently zeroing the state (which
// would drop other readers' shared holds on a misuse).
func (l *RWLock) WUnlock() {
	if !l.state.CompareAndSwap(-1, 0) {
		panic(fmt.Sprintf("storage: WUnlock of RWLock not writer-held (state %d)", l.state.Load()))
	}
}

// TryUpgrade promotes a shared lock to exclusive. It succeeds only
// when the caller is the sole reader.
func (l *RWLock) TryUpgrade() bool { return l.state.CompareAndSwap(1, -1) }

// RW returns the record's 2PL lock.
func (r *Record) RW() *RWLock { return &r.rw }
