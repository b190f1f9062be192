package storage

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Meta word layout (one atomic uint64 per record):
//
//	bit  63     lock bit
//	bit  62     visibility bit
//	bits 61..32 epoch half of the commit timestamp (30 bits)
//	bits 31..0  per-thread sequence half of the commit timestamp
//
// Packing lock state and timestamp into a single word lets the
// validation phase read both atomically, exactly as Silo's TID word
// does and as required by the paper's Algorithm 1.
const (
	metaLockBit    = uint64(1) << 63
	metaVisibleBit = uint64(1) << 62
	metaTSMask     = metaVisibleBit - 1 // low 62 bits

	// MaxTimestamp is the largest commit timestamp a record can carry.
	MaxTimestamp = metaTSMask
)

// MakeTS composes a 62-bit commit timestamp from its epoch (high,
// 30 bits) and sequence (low, 32 bits) halves.
func MakeTS(epoch uint32, seq uint32) uint64 {
	return (uint64(epoch)<<32 | uint64(seq)) & metaTSMask
}

// SplitTS decomposes a commit timestamp into epoch and sequence halves.
func SplitTS(ts uint64) (epoch uint32, seq uint32) {
	return uint32(ts >> 32), uint32(ts)
}

// addrCounter hands out the global total order used in place of raw
// memory addresses for deadlock-free lock acquisition. Creation order
// is as good as address order for the protocol (any global total
// order works, §4.2.1) and is deterministic for tests.
var addrCounter atomic.Uint64

// Record is one database row plus its concurrency-control metadata.
// The tuple is an immutable array of width Values replaced wholesale
// by writers while they hold the record lock, so optimistic readers
// never observe a torn row. The record points at the array's first
// column and keeps the width itself (every image of a row has its
// table's width), so one atomic load yields the whole row and no
// slice header has to be boxed on the heap per write.
type Record struct {
	meta  atomic.Uint64
	tuple atomic.Pointer[Value] // first column of the current image
	refs  atomic.Int32          // transactions currently pinning the record (GC)
	rw    RWLock                // reader/writer lock for the 2PL baseline only
	addr  uint64                // global lock-order position, fixed at creation
	key   Key                   // primary key, for logging and recovery
	table int32                 // owning table id, for logging and recovery
	width int32                 // columns per image, fixed at creation

	// older heads the version chain of superseded row images
	// (version.go); chained marks membership in the version GC's
	// tracking queue.
	older   atomic.Pointer[Version]
	chained atomic.Bool
}

// NewRecord allocates a record holding tuple with the given initial
// commit timestamp. Visible controls the initial visibility bit:
// records inserted by an uncommitted transaction start invisible
// (§4.7.1).
func NewRecord(table int, key Key, tuple Tuple, ts uint64, visible bool) *Record {
	return newRecord(addrCounter.Add(1), table, key, tuple, ts, visible)
}

// newRecord is NewRecord at a lock-order address the caller reserved.
func newRecord(addr uint64, table int, key Key, tuple Tuple, ts uint64, visible bool) *Record {
	r := &Record{addr: addr, key: key, table: int32(table), width: int32(len(tuple))}
	m := ts & metaTSMask
	if visible {
		m |= metaVisibleBit
	}
	r.meta.Store(m)
	r.tuple.Store(unsafe.SliceData(tuple))
	return r
}

// Addr returns the record's position in the global lock order.
func (r *Record) Addr() uint64 { return r.addr }

// Key returns the record's primary key.
func (r *Record) Key() Key { return r.key }

// Table returns the owning table id.
func (r *Record) Table() int { return int(r.table) }

// Meta atomically reads the record's timestamp, lock bit and
// visibility bit together.
//
//thedb:noalloc
func (r *Record) Meta() (ts uint64, locked, visible bool) {
	m := r.meta.Load()
	return m & metaTSMask, m&metaLockBit != 0, m&metaVisibleBit != 0
}

// Timestamp returns the commit timestamp of the record's last writer.
//
//thedb:noalloc
func (r *Record) Timestamp() uint64 { return r.meta.Load() & metaTSMask }

// Visible reports the visibility bit (§2: off for deleted records and
// for records inserted by yet-to-be-committed transactions).
//
//thedb:noalloc
func (r *Record) Visible() bool { return r.meta.Load()&metaVisibleBit != 0 }

// Locked reports whether some transaction holds the record lock.
//
//thedb:noalloc
func (r *Record) Locked() bool { return r.meta.Load()&metaLockBit != 0 }

// TryLock attempts to set the lock bit, returning false if the record
// is already locked. It never blocks; this is the primitive behind
// the no-wait deadlock-prevention policy (§4.2.2).
//
//thedb:noalloc
func (r *Record) TryLock() bool {
	for {
		m := r.meta.Load()
		if m&metaLockBit != 0 {
			return false
		}
		if r.meta.CompareAndSwap(m, m|metaLockBit) {
			return true
		}
	}
}

// Lock spins until the record lock is acquired. Safe only when all
// transactions acquire locks in the global order, which rules out
// deadlock (§4.2.1).
//
//thedb:noalloc
func (r *Record) Lock() {
	for i := 0; ; i++ {
		if r.TryLock() {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// Unlock clears the lock bit. The caller must hold the lock.
//
//thedb:noalloc
func (r *Record) Unlock() {
	for {
		m := r.meta.Load()
		if r.meta.CompareAndSwap(m, m&^metaLockBit) {
			return
		}
	}
}

// SetTimestamp overwrites the commit timestamp. The caller must hold
// the record lock (Algorithm 3 installs writes before stamping).
//
//thedb:noalloc
func (r *Record) SetTimestamp(ts uint64) {
	for {
		m := r.meta.Load()
		if r.meta.CompareAndSwap(m, (m&^metaTSMask)|(ts&metaTSMask)) {
			return
		}
	}
}

// SetVisible sets or clears the visibility bit. The caller must hold
// the record lock.
//
//thedb:noalloc
func (r *Record) SetVisible(v bool) {
	for {
		m := r.meta.Load()
		n := m &^ metaVisibleBit
		if v {
			n |= metaVisibleBit
		}
		if r.meta.CompareAndSwap(m, n) {
			return
		}
	}
}

// Tuple returns the current row image. The returned slice is
// immutable and remains valid after concurrent writes (writers swap
// in a fresh copy).
//
//thedb:noalloc
func (r *Record) Tuple() Tuple { return r.row(r.tuple.Load()) }

// row rebuilds the slice over an image loaded from r.tuple.
//
//thedb:noalloc
func (r *Record) row(p *Value) Tuple { return unsafe.Slice(p, r.width) }

// StableSnapshot reads the record's timestamp, visibility and tuple
// as one consistent pair without blocking writers: a seqlock-style
// loop reads the meta word, then the tuple pointer, then the meta
// word again, and accepts only when the record was unlocked and the
// meta word did not move. Writers install the tuple before stamping
// the timestamp (both under the record lock), so an accepted pair is
// exactly some committed version — never a new timestamp over an old
// tuple. The online checkpointer depends on that: pairing a stale
// tuple with a fresh timestamp would survive the Thomas write rule
// at replay and corrupt the restored state.
//
//thedb:noalloc
func (r *Record) StableSnapshot() (ts uint64, t Tuple, visible bool) {
	for i := 0; ; i++ {
		m1 := r.meta.Load()
		if m1&metaLockBit == 0 {
			tp := r.tuple.Load()
			if r.meta.Load() == m1 {
				return m1 & metaTSMask, r.row(tp), m1&metaVisibleBit != 0
			}
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}

// SetTuple installs a new row image of the record's width. The caller
// must hold the record lock and must not mutate t afterwards.
func (r *Record) SetTuple(t Tuple) {
	if len(t) != int(r.width) {
		panic("storage: SetTuple: image width differs from the record's")
	}
	r.tuple.Store(unsafe.SliceData(t))
}

// Pin increments the reference counter: the calling transaction holds
// the record in its read/write set, so the garbage collector must not
// reclaim it (§4.7.1).
func (r *Record) Pin() { r.refs.Add(1) }

// Unpin releases one reference taken by Pin.
func (r *Record) Unpin() { r.refs.Add(-1) }

// Refs returns the current reference count (for the GC and tests).
func (r *Record) Refs() int32 { return r.refs.Load() }
