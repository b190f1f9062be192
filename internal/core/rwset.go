package core

import (
	"cmp"
	"slices"

	"thedb/internal/btree"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// AccessMode describes how a transaction touched a record (§4.1).
type AccessMode uint8

// Access modes.
const (
	ModeRead  AccessMode = 1 << iota // R
	ModeWrite                        // W
)

// writeRec is one operation's buffered write to a record. Writes are
// kept per operation so that a key-dependent re-execution can retract
// exactly its own effects during read/write-set membership updates.
type writeRec struct {
	opID int
	seq  int // registration order within the transaction
	cols []int
	vals []storage.Value
}

// Element is one read/write-set entry (§4.1): the record it points
// at, the access mode, the R-timestamp observed when first read, and
// the bookmarks of the operations that read it. It additionally
// carries the local read copies used for false-invalidation
// elimination (§4.5) and the buffered write effects installed at
// commit.
type Element struct {
	rec *storage.Record
	tab *storage.Table
	// rank caches tab.Rank() for validation-order sorting.
	rank int

	mode AccessMode
	rts  uint64
	// seenVisible records the visibility observed at first read, so
	// the false-invalidation check can reject visibility flips.
	seenVisible bool

	// bookmarks lists the operations that read this record; the
	// first entry is the paper's bookmark. (The paper stores only
	// the first reader; restoring every reader is strictly safer
	// when two independent operations read the same record.)
	bookmarks []*OpRun

	// readCols is the union of columns read (nil = all columns);
	// readCopy/copied hold local copies of those columns (empty = no
	// copy kept; a frame element keeps their zeroed arrays).
	readCols []int
	allCols  bool
	readCopy storage.Tuple
	copied   []bool

	writes []writeRec

	isInsert    bool
	insertTuple storage.Tuple
	isDelete    bool
	// insertConflict marks an insert that found a visible record at
	// read time. Validation decides its fate: if the record is
	// unchanged since, the key genuinely exists at commit time and
	// the transaction gets a duplicate-key abort; if it changed, the
	// insert key came from a stale read and the attempt restarts (or
	// heals).
	insertConflict bool
	// insertSeq/deleteSeq record the program-order position of the
	// buffered insert/delete, so reads by earlier operations (during
	// healing replay) do not observe effects of later ones.
	insertSeq int
	deleteSeq int

	// createdDummy marks that this transaction materialized the
	// record as an invisible dummy (read of a missing key or an
	// insert); it is retired to the GC when the transaction ends.
	createdDummy bool

	// uses counts access-cache entries referencing this element, so
	// re-execution can detect when an element left the footprint.
	uses int

	locked  bool
	removed bool

	// tplMode is the 2PL lock state held on the record (THEDB-2PL
	// only).
	tplMode uint8
}

// noteRead merges a read of cols (nil = all) over the observed tuple
// cur, maintaining the local read copies when enabled. It never
// refreshes the R-timestamp: rts is captured when the element is
// acquired, strictly before any data load, so that a concurrent
// commit between timestamp capture and data read is always detected
// as a timestamp mismatch (never the reverse).
func (el *Element) noteRead(op *OpRun, cols []int, cur storage.Tuple, keepCopy bool) {
	el.mode |= ModeRead
	if op != nil && !containsOp(el.bookmarks, op) {
		el.bookmarks = append(el.bookmarks, op)
	}
	if !keepCopy {
		el.allCols = true
		el.readCols = nil
		return
	}
	if len(el.readCopy) == 0 {
		if cap(el.readCopy) < len(cur) {
			el.readCopy, el.copied = make(storage.Tuple, len(cur)), make([]bool, len(cur))
		}
		el.readCopy, el.copied = el.readCopy[:len(cur)], el.copied[:len(cur)]
	}
	if cols == nil {
		el.allCols = true
		el.readCols = nil
		for i, v := range cur {
			if !el.copied[i] {
				el.readCopy[i] = v
				el.copied[i] = true
			}
		}
		return
	}
	for _, c := range cols {
		if !el.copied[c] {
			el.readCopy[c] = cur[c]
			el.copied[c] = true
			if !el.allCols {
				el.readCols = appendUnique(el.readCols, c)
			}
		}
	}
}

// falseInvalidation reports whether the record's current tuple agrees
// with the local copies on every column this transaction read — the
// §4.5 check dismissing timestamp mismatches caused by writes to
// unrelated columns. It requires read copies to be maintained.
func (el *Element) falseInvalidation(cur storage.Tuple) bool {
	if len(el.readCopy) == 0 {
		return false
	}
	if el.allCols {
		for i := range cur {
			if el.copied[i] && !cur[i].Equal(el.readCopy[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range el.readCols {
		if !cur[c].Equal(el.readCopy[c]) {
			return false
		}
	}
	return true
}

// refreshCopies reloads the local read copies from cur after healing
// restored the element.
func (el *Element) refreshCopies(cur storage.Tuple) {
	if len(el.readCopy) == 0 {
		return
	}
	for i := range el.copied {
		if el.copied[i] {
			el.readCopy[i] = cur[i]
		}
	}
}

// addWrite buffers a write by op.
func (el *Element) addWrite(opID, seq int, cols []int, vals []storage.Value) {
	el.mode |= ModeWrite
	el.writes = append(el.writes, writeRec{opID: opID, seq: seq, cols: cols, vals: vals})
}

// dropWrites retracts every buffered write of op (key-dependent
// re-execution).
func (el *Element) dropWrites(opID int) {
	out := el.writes[:0]
	for _, w := range el.writes {
		if w.opID != opID {
			out = append(out, w)
		}
	}
	el.writes = out
	if len(el.writes) == 0 && !el.isInsert && !el.isDelete {
		el.mode &^= ModeWrite
	}
}

// hasWrites reports whether any write effect is buffered.
func (el *Element) hasWrites() bool {
	return len(el.writes) > 0 || el.isInsert || el.isDelete
}

// applyWrites folds the buffered writes over base in registration
// order, returning a fresh tuple (or base itself when no writes
// apply).
func (el *Element) applyWrites(base storage.Tuple) storage.Tuple {
	return el.applyWritesBefore(base, int(^uint(0)>>1))
}

// applyWritesBefore folds only the writes with fold position below
// beforeSeq, i.e. those issued by operations preceding the reader in
// program order.
func (el *Element) applyWritesBefore(base storage.Tuple, beforeSeq int) storage.Tuple {
	if len(el.writes) == 0 {
		return base
	}
	slices.SortStableFunc(el.writes, bySeq)
	var t storage.Tuple
	for _, w := range el.writes {
		if w.seq >= beforeSeq {
			break
		}
		if t == nil {
			t = base.Clone()
		}
		for i, c := range w.cols {
			t[c] = w.vals[i]
		}
	}
	if t == nil {
		return base
	}
	return t
}

// writeColumns returns the distinct columns written, in fold order,
// with their final values (for value logging).
func (el *Element) writeColumns() (cols []int, vals []storage.Value) {
	slices.SortStableFunc(el.writes, bySeq)
	for _, w := range el.writes {
		for i, c := range w.cols {
			if p := slices.Index(cols, c); p >= 0 {
				vals[p] = w.vals[i]
			} else {
				cols = append(cols, c)
				vals = append(vals, w.vals[i])
			}
		}
	}
	return cols, vals
}

func bySeq(a, b writeRec) int { return cmp.Compare(a.seq, b.seq) }

// recycle empties a frame element for the next attempt. It keeps the
// backing arrays of its buffers, cleared across their whole capacity so
// that they pin no operation, row image or buffered write, and nothing
// else.
//
//thedb:noalloc
func (el *Element) recycle() {
	bm, ws := el.bookmarks[:cap(el.bookmarks)], el.writes[:cap(el.writes)]
	rc, cp := el.readCopy[:cap(el.readCopy)], el.copied[:cap(el.copied)]
	clear(bm)
	clear(ws)
	clear(rc)
	clear(cp)
	*el = Element{bookmarks: bm[:0], writes: ws[:0], readCopy: rc[:0], copied: cp[:0]}
}

func containsOp(ops []*OpRun, op *OpRun) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// ScanAccess records one range scan's leaf observations for phantom
// validation (§4.7.2). The records returned by the scan appear as
// ordinary read elements; the leaf versions detect structural change
// (inserts, deletes, splits) within the scanned range.
type ScanAccess struct {
	op   *OpRun
	refs []btree.ScanRef
	// removed marks observations retracted by a key-dependent
	// re-execution of the owning operation.
	removed bool
}

// changed reports whether any observed leaf was structurally modified
// since the scan.
func (s *ScanAccess) changed() bool {
	for _, r := range s.refs {
		if r.Changed() {
			return true
		}
	}
	return false
}

// OpRun is the access-cache entry of one operation (§4.1): the
// ordered list of record accesses it performed, enabling cached-mode
// replay (value-dependent restoration) and re-execution diffing
// (key-dependent restoration).
type OpRun struct {
	op       *proc.Op
	accesses []accessEntry
}

type accessKind uint8

const (
	accessPoint accessKind = iota
	accessScan
)

type accessEntry struct {
	kind accessKind
	elem *Element // accessPoint
	// seq is the entry's stable write fold position (program order),
	// reused when a replayed write re-buffers its effect.
	seq int
	// isWrite marks buffered-effect entries (write/insert/delete).
	// When healing changes such an entry's element, later operations
	// that read the element through the database must be restored
	// too (intra-transaction read-after-write flows are invisible to
	// the variable-level dependency graph).
	isWrite bool
	scan    *ScanAccess // accessScan
	// scanElems lists the elements produced by the scan, for replay.
	scanElems []*Element
}

// RWSet is a transaction's read/write set plus its scan (node) set,
// reset rather than remade between attempts.
type RWSet struct {
	elems []*Element
	byRec map[*storage.Record]*Element
	scans []*ScanAccess
	// sorted reports whether elems is currently in validation order;
	// order is that order — the engine's, fixed at construction, so no
	// validation loop can pick another.
	sorted bool
	order  OrderMode
}

// keepElems bounds the footprint whose storage reset keeps: clearing a
// map costs its capacity, not its length, so a set that once held a
// long scan would tax every point transaction after it.
const keepElems = 64

// reset empties the set, nil-ing what it truncates.
//
//thedb:noalloc
func (s *RWSet) reset() {
	if len(s.elems) > keepElems {
		s.elems, s.byRec = nil, nil
	} else {
		clear(s.elems)
		s.elems = s.elems[:0]
		clear(s.byRec)
	}
	clear(s.scans)
	s.scans = s.scans[:0]
	s.sorted = false
}

// smallSet is the footprint that lives in the worker's frame: the
// elements of a set this small come from Txn.frame, and lookup scans
// them instead of hashing. The 17th element promotes the set to byRec.
const smallSet = 16

// lookup returns the element for rec, if any.
//
//thedb:noalloc
func (s *RWSet) lookup(rec *storage.Record) *Element {
	if len(s.elems) > smallSet {
		return s.byRec[rec]
	}
	for _, el := range s.elems {
		if el.rec == rec {
			return el
		}
	}
	return nil
}

// add registers a new element.
func (s *RWSet) add(el *Element) {
	if n := len(s.elems); n >= smallSet {
		if n == smallSet {
			if s.byRec == nil {
				s.byRec = make(map[*storage.Record]*Element)
			}
			for _, e := range s.elems {
				s.byRec[e.rec] = e
			}
		}
		s.byRec[el.rec] = el
	}
	if !s.sorted {
		s.elems = append(s.elems, el)
		return
	}
	// Membership update during validation: keep the slice sorted.
	i, _ := slices.BinarySearchFunc(s.elems, el, compareIn[s.order])
	s.elems = slices.Insert(s.elems, i, el)
}

// sort puts the elements in validation order.
//
//thedb:noalloc
func (s *RWSet) sort() {
	slices.SortFunc(s.elems, compareIn[s.order])
	s.sorted = true
}

// indexOf returns el's current position in the sorted slice.
func (s *RWSet) indexOf(el *Element) int {
	if i, ok := slices.BinarySearchFunc(s.elems, el, compareIn[s.order]); ok {
		return i
	}
	return -1
}

// compareIn holds the global validation orders of §4.2.1/§4.5/App. G
// as three-way comparisons, indexed by OrderMode (the zero mode is
// address order) and built once, so that sorting makes no closure.
// Each is a total order: record addresses are unique.
var compareIn = [...]func(a, b *Element) int{
	0:                byAddr,
	AddrOrder:        byAddr,
	TreeOrder:        func(a, b *Element) int { return byRank(a.rank-b.rank, a, b) },
	ReverseTreeOrder: func(a, b *Element) int { return byRank(b.rank-a.rank, a, b) },
}

func byAddr(a, b *Element) int { return cmp.Compare(a.rec.Addr(), b.rec.Addr()) }

// byRank orders by rank difference d, loading the records only on a tie.
func byRank(d int, a, b *Element) int {
	if d != 0 {
		return d
	}
	return byAddr(a, b)
}
