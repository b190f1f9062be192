// Package mvcc holds the snapshot-side policy of THEDB's multi-version
// read path (DESIGN.md §4.6): which snapshot timestamps are pinned, and
// how the garbage-collection low-watermark is derived from them.
//
// The mechanism lives in internal/storage (version chains on records,
// chain pruning in the GC); the engine glues the two together. This
// package deliberately knows nothing about records or epochs beyond
// the timestamp encoding:
//
//   - Every snapshot timestamp has the boundary form MakeTS(F,0)-1 —
//     the largest timestamp below epoch F. The engine guarantees that
//     all commits at or below such a boundary are fully installed and
//     all in-flight commits are stamped above it.
//   - The Floor ratchet keeps snapshot timestamps monotone: a worker
//     whose epoch registration went stale could otherwise compute a
//     floor below one the GC already reclaimed against.
//   - The PinSet publishes each worker's active snapshot; the
//     low-watermark handed to the GC is the oldest pin, or the current
//     ratcheted floor when nothing is pinned.
package mvcc

import "sync/atomic"

// PinSet tracks one pinned snapshot timestamp per worker (0 = none).
// Slots follow the worker single-goroutine contract: Pin/Unpin on slot
// i are only called by worker i, while Oldest may scan concurrently.
type PinSet struct {
	pins []atomic.Uint64
}

// NewPinSet sizes the set for n workers.
func NewPinSet(n int) *PinSet {
	return &PinSet{pins: make([]atomic.Uint64, n)}
}

// Pin publishes worker's active snapshot timestamp. Boundary-form
// timestamps are never zero, so zero doubles as the empty marker.
func (p *PinSet) Pin(worker int, s uint64) { p.pins[worker].Store(s) }

// Unpin clears worker's slot.
func (p *PinSet) Unpin(worker int) { p.pins[worker].Store(0) }

// Oldest returns the lowest pinned snapshot timestamp, if any.
func (p *PinSet) Oldest() (uint64, bool) {
	var min uint64
	found := false
	for i := range p.pins {
		s := p.pins[i].Load()
		if s == 0 {
			continue
		}
		if !found || s < min {
			min = s
			found = true
		}
	}
	return min, found
}

// Active returns the number of pinned snapshots.
func (p *PinSet) Active() int {
	n := 0
	for i := range p.pins {
		if p.pins[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Floor is the monotone snapshot-floor ratchet. Candidate floors
// derived from worker epoch registrations are not monotone on their
// own (a registration stored from a stale epoch read can drag the
// candidate backwards); ratcheting through Floor makes every snapshot
// timestamp and every GC watermark non-decreasing, which is what makes
// "reclaim below the watermark" safe against snapshots taken later.
type Floor struct {
	v atomic.Uint64
}

// Raise ratchets the floor up to candidate and returns the ratcheted
// value (candidate itself, or the higher floor some other thread
// already published). Both outcomes are valid snapshot points:
// validity — "every commit at or below is fully installed" — only ever
// grows over time, and the returned value was computed as valid by
// whoever stored it.
func (f *Floor) Raise(candidate uint64) uint64 {
	for {
		cur := f.v.Load()
		if cur >= candidate {
			return cur
		}
		if f.v.CompareAndSwap(cur, candidate) {
			return candidate
		}
	}
}

// Load returns the current floor (0 before the first Raise).
func (f *Floor) Load() uint64 { return f.v.Load() }

// Watermark derives the GC low-watermark from the ratcheted floor and
// the pin set: the oldest pinned snapshot when one is below the floor,
// the floor otherwise. Callers must Raise the floor BEFORE reading the
// pins — a pin published concurrently is then either observed here or
// its owner observes the raised floor and re-pins at or above it
// (sequentially consistent atomics give one order or the other).
func Watermark(f *Floor, p *PinSet, candidate uint64) uint64 {
	wm := f.Raise(candidate)
	if oldest, ok := p.Oldest(); ok && oldest < wm {
		wm = oldest
	}
	return wm
}
