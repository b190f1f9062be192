package storage

import (
	"fmt"

	"thedb/internal/btree"
	"thedb/internal/hashidx"
)

// Table is one relation: a primary hash index for point access, an
// optional ordered B+-tree for range scans (with per-leaf versions
// for phantom protection), and zero or more string-keyed secondary
// indexes.
type Table struct {
	id          int
	schema      Schema
	nullRow     Tuple // the all-null image every dummy record shares
	primary     *hashidx.Map[*Record]
	ordered     *btree.Sharded[*Record]
	secondaries []*btree.Tree[string, *Record]
}

// NewTable builds a table from its schema. id must be unique within
// the catalog.
func NewTable(id int, schema Schema) *Table {
	t := &Table{id: id, schema: schema, nullRow: make(Tuple, len(schema.Columns)), primary: hashidx.New[*Record]()}
	if schema.Ordered {
		shift := schema.ShardShift
		if shift == 0 {
			shift = 64
		}
		t.ordered = btree.NewSharded[*Record](shift)
	}
	for range schema.Secondaries {
		t.secondaries = append(t.secondaries, btree.New[string, *Record]())
	}
	return t
}

// ID returns the table's catalog id.
func (t *Table) ID() int { return t.id }

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// Rank returns the table's tree-schema rank (§4.5).
func (t *Table) Rank() int { return t.schema.Rank }

// Len returns the number of records reachable through the primary
// index, including invisible ones.
func (t *Table) Len() int { return t.primary.Len() }

// Get returns the record stored under key, pinning it against garbage
// collection. Callers must Unpin when done (the engine does so when
// the transaction finishes). The returned record may be invisible.
func (t *Table) Get(key Key) (*Record, bool) {
	return t.primary.GetWith(uint64(key), (*Record).Pin)
}

// Peek returns the record without pinning (bulk inspection, tests).
func (t *Table) Peek(key Key) (*Record, bool) {
	return t.primary.Get(uint64(key))
}

// GetOrCreateDummy returns the record under key, creating an
// invisible dummy record if none exists — the mechanism of §4.7.1 for
// reads of non-existent keys and for inserts. The result is pinned.
// Every dummy of a table points at the same immutable all-null row.
func (t *Table) GetOrCreateDummy(key Key) (rec *Record, created bool) {
	rec, loaded := t.primary.LoadOrStoreWith(uint64(key), func() *Record {
		return NewRecord(t.id, key, t.nullRow, 0, false)
	}, (*Record).Pin)
	if !loaded && t.ordered != nil {
		t.ordered.Insert(uint64(key), rec)
	}
	return rec, !loaded
}

// Put bulk-loads a visible record (population and recovery only; it
// bypasses concurrency control). It replaces any existing record.
func (t *Table) Put(key Key, tuple Tuple, ts uint64) *Record {
	rec := NewRecord(t.id, key, tuple, ts, true)
	t.store(rec)
	return rec
}

// store adds a record of the schema's width (another panics) to every
// index, replacing any under its key, and reports whether none was.
func (t *Table) store(rec *Record) (fresh bool) {
	if int(rec.width) != len(t.schema.Columns) {
		panic(fmt.Sprintf("storage: table %s: tuple width %d != schema width %d", t.schema.Name, rec.width, len(t.schema.Columns)))
	}
	fresh = t.primary.Store(uint64(rec.key), rec)
	if t.ordered != nil {
		t.ordered.Insert(uint64(rec.key), rec)
	}
	t.IndexSecondaries(rec, rec.Tuple())
	return fresh
}

// IndexSecondaries adds the record to every secondary index using the
// given tuple image. Called at commit time for inserts.
func (t *Table) IndexSecondaries(rec *Record, tuple Tuple) {
	for i, def := range t.schema.Secondaries {
		t.secondaries[i].Insert(def.Key(rec.Key(), tuple), rec)
	}
}

// ReindexSecondaries moves the record between secondary entries when
// an update changed an indexed column.
func (t *Table) ReindexSecondaries(rec *Record, old, new_ Tuple) {
	for i, def := range t.schema.Secondaries {
		ok, nk := def.Key(rec.Key(), old), def.Key(rec.Key(), new_)
		if ok != nk {
			t.secondaries[i].Delete(ok)
			t.secondaries[i].Insert(nk, rec)
		}
	}
}

// RangeWalk visits the records with lo <= key <= hi in key order, a
// leaf at a time, invisible ones included (callers filter on
// visibility): fn gets each leaf, whose Ref is the observation
// phantom validation re-checks (§4.7.2), and its in-range records.
// fn runs under the index read lock and must not retain recs. The
// table must have an ordered index.
func (t *Table) RangeWalk(lo, hi Key, fn func(l *btree.Leaf[uint64, *Record], recs []*Record) bool) {
	t.ordered.Walk(uint64(lo), uint64(hi), func(l *btree.Leaf[uint64, *Record], _ []uint64, recs []*Record) bool {
		return fn(l, recs)
	})
}

// SecondaryWalk is RangeWalk over the secondary index idx, for
// secondary keys in [lo, hi], in secondary-key order.
func (t *Table) SecondaryWalk(idx int, lo, hi string, fn func(l *btree.Leaf[string, *Record], recs []*Record) bool) {
	t.secondaries[idx].Walk(lo, hi, func(l *btree.Leaf[string, *Record], _ []string, recs []*Record) bool {
		return fn(l, recs)
	})
}

// SecondaryIndexID returns the position of the named secondary index,
// or -1.
func (t *Table) SecondaryIndexID(name string) int {
	for i, def := range t.schema.Secondaries {
		if def.Name == name {
			return i
		}
	}
	return -1
}

// unlink removes a record from all indexes if it is unreferenced.
// Returns false when the record is still pinned. GC only.
func (t *Table) unlink(rec *Record) bool {
	removed := t.primary.DeleteIf(uint64(rec.Key()), func(cur *Record) bool {
		return cur == rec && cur.Refs() == 0 && !cur.Visible()
	})
	if !removed {
		return false
	}
	// Conditional removals: a concurrent insert may have re-created
	// the key with a fresh record between the primary removal and
	// these cleanups; evicting the newcomer's entries would make a
	// committed row invisible to scans.
	same := func(cur *Record) bool { return cur == rec }
	if t.ordered != nil {
		t.ordered.DeleteIf(uint64(rec.Key()), same)
	}
	tuple := rec.Tuple()
	for i, def := range t.schema.Secondaries {
		t.secondaries[i].DeleteIf(def.Key(rec.Key(), tuple), same)
	}
	return true
}

// ForEach visits every record in the primary index (checkpointing,
// consistency checks). Iteration order is unspecified.
func (t *Table) ForEach(fn func(k Key, r *Record) bool) {
	t.primary.Range(func(k uint64, r *Record) bool { return fn(Key(k), r) })
}
