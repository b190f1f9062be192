package storage

import (
	"runtime"
	"sync/atomic"
)

// Version chains (DESIGN.md §2.3): every record can carry a short
// singly-linked chain of superseded row images, newest first. A node
// covers the commit-timestamp interval [begin, end): begin is the
// commit that produced the image, end the commit that replaced it.
// Nodes are immutable after publication except for the next pointer,
// which only ever moves toward nil (pruning).
//
// Snapshot timestamps always have the boundary form MakeTS(F,0)-1 —
// the largest timestamp below epoch F — chosen so that every commit
// stamped at or below the snapshot is fully installed and every
// in-flight commit is stamped strictly above it (core.Engine takes
// care of both). Two consequences shape the code here:
//
//   - An image overwritten within one epoch can never be the visible
//     version of any snapshot (no boundary falls between its begin and
//     end), so the install path only allocates a chain node when the
//     overwrite crosses an epoch boundary. Same-epoch overwrites — the
//     common case, epochs are ~10ms and record overwrites often
//     microseconds apart — keep the read-write fast path allocation
//     free.
//   - A reader that finds the record's own stamp at or below its
//     snapshot can return the in-record image directly; it never has
//     to wait out a concurrent writer, because a writer mid-install is
//     stamped above every valid snapshot.
type Version struct {
	begin uint64 // commit TS at which this image became current
	end   uint64 // commit TS of the write that superseded it
	tuple Tuple  // the immutable row image

	next atomic.Pointer[Version] // next-older node; only ever re-stored as nil after publish
}

// End returns the commit timestamp that superseded this image.
func (v *Version) End() uint64 { return v.end }

// Tuple returns the immutable row image.
func (v *Version) Tuple() Tuple { return v.tuple }

// NeedsVersion reports whether a commit at newTS superseding an image
// stamped oldTS must preserve that image on the version chain: true
// exactly when a snapshot boundary (a timestamp of the form
// MakeTS(epoch,0)-1) lies in [oldTS, newTS), i.e. when the overwrite
// crosses an epoch boundary. Same-epoch overwrites need no version —
// no snapshot can ever land between the two stamps.
//
//thedb:noalloc
func NeedsVersion(oldTS, newTS uint64) bool {
	return uint32(oldTS>>32) != uint32(newTS>>32)
}

// InstallVersion preserves the record's current image on its version
// chain when a commit at newTS is about to supersede it and a snapshot
// may still need it (NeedsVersion). The caller must hold the record's
// write serialization (the meta lock for the optimistic protocols, the
// RW write lock for 2PL) and must call it BEFORE mutating the record
// (SetTuple / SetVisible / SetTimestamp): readers detect a pushed-but-
// not-yet-stamped install by the head's begin matching the record's
// stamp. Invisible states (dummies, deleted records) are never pushed;
// their absence is represented by chain gaps.
//
// Returns true when a node was pushed — the caller then registers the
// record with the version GC.
//
//thedb:noalloc
func (r *Record) InstallVersion(newTS uint64) bool {
	ts, _, visible := r.Meta()
	if !visible {
		return false // invisible images are never snapshot-visible
	}
	if !NeedsVersion(ts, newTS) {
		return false
	}
	v := &Version{begin: ts, end: newTS, tuple: r.Tuple()} //thedb:nolint:noalloc cold branch: at most one node per record per crossed epoch boundary (~EpochInterval apart), not one per write
	v.next.Store(r.older.Load())
	r.older.Store(v)
	return true
}

// SnapshotAt resolves the record's row image and existence as of
// snapshot timestamp s, without blocking and without being blocked by
// concurrent writers. s must be a snapshot boundary obtained from the
// engine (MakeTS(F,0)-1, below every in-flight commit); arbitrary
// timestamps get no consistency guarantee.
//
// Fast path: the record's own stamp is at or below s and no install is
// in flight — the in-record image is the visible version. The head
// pointer is re-checked alongside the meta word because a writer that
// skips the version push (same-epoch overwrite) swaps the tuple before
// restamping; both checks passing proves the tuple load paired with
// m1, or that the replacement is itself at or below s (in which case
// returning it is equally correct — see DESIGN.md §2.3 for the
// argument).
//
//thedb:noalloc
func (r *Record) SnapshotAt(s uint64) (Tuple, bool) {
	for i := 0; ; i++ {
		ts1, lk1, vis1 := r.Meta()
		if ts1 > s {
			// Current image is too new: the visible version, if any,
			// is on the chain.
			return r.versionAt(s)
		}
		h1 := r.older.Load()
		if h1 != nil && h1.begin == ts1 {
			// A writer pushed the current image but has not
			// restamped yet: the chain head IS version ts1, and its
			// end (the in-flight commit) is above s by construction.
			return r.versionAt(s)
		}
		tp := r.tuple.Load()
		// Meta() decomposes the whole meta word, so component equality
		// is word equality: the tuple load paired with the first read.
		ts2, lk2, vis2 := r.Meta()
		if r.older.Load() == h1 && ts2 == ts1 && lk2 == lk1 && vis2 == vis1 {
			if !vis1 {
				return nil, false // deleted (or never inserted) as of s
			}
			return r.row(tp), true
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}

// versionAt walks the chain (newest first) for the node covering s:
// the first node with begin <= s. Its end decides existence — a dead
// interval (end <= s) means the record did not exist at s (it was
// deleted and later re-inserted, or the covering image was skipped as
// same-epoch and s provably postdates its replacement). No node with
// begin <= s means the record did not exist yet.
//
//thedb:noalloc
func (r *Record) versionAt(s uint64) (Tuple, bool) {
	for v := r.older.Load(); v != nil; v = v.next.Load() {
		if v.begin <= s {
			if v.end <= s {
				return nil, false
			}
			return v.tuple, true
		}
	}
	return nil, false
}

// PruneVersions drops every chain node no snapshot at or above
// watermark can reach: the suffix starting at the first node whose end
// is at or below the watermark (ends strictly decrease down the
// chain). Safe concurrently with readers (nodes only become
// unreachable, never mutate) and with writers (a concurrent push wins
// the head CAS and the chain is retried next cycle; a push that
// resurrects an already-counted suffix is harmless — the suffix stays
// invisible to every live snapshot and the next pass cuts it again).
//
// Returns the number of nodes dropped and whether the chain is empty
// afterwards.
func (r *Record) PruneVersions(watermark uint64) (dropped int, empty bool) {
	h := r.older.Load()
	if h == nil {
		return 0, true
	}
	if h.end <= watermark {
		if r.older.CompareAndSwap(h, nil) {
			return chainLen(h), true
		}
		return 0, false
	}
	prev := h
	for v := prev.next.Load(); v != nil; v = prev.next.Load() {
		if v.end <= watermark {
			prev.next.Store(nil)
			return chainLen(v), false
		}
		prev = v
	}
	return 0, false
}

// VersionLen returns the number of chain nodes (superseded images)
// currently reachable. The full chain length as seen by a snapshot
// reader is VersionLen()+1: the in-record image is always version 0.
func (r *Record) VersionLen() int { return chainLen(r.older.Load()) }

func chainLen(v *Version) int {
	n := 0
	for ; v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// markChained flips the record's membership flag for the version GC's
// tracking queue, returning true when this caller won the transition
// (and must enqueue the record). clearChained re-arms it once the
// chain has been fully pruned.
func (r *Record) markChained() bool { return r.chained.CompareAndSwap(false, true) }

func (r *Record) clearChained() { r.chained.Store(false) }
