package storage

import (
	"sync"
	"testing"
	"testing/quick"

	"thedb/internal/btree"
)

func TestMetaWordPacking(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(1)}, MakeTS(3, 7), true)
	ts, locked, visible := r.Meta()
	if ts != MakeTS(3, 7) || locked || !visible {
		t.Fatalf("meta = (%d, %v, %v)", ts, locked, visible)
	}
	e, s := SplitTS(ts)
	if e != 3 || s != 7 {
		t.Fatalf("split = (%d, %d)", e, s)
	}
	if !r.TryLock() {
		t.Fatal("TryLock failed on unlocked record")
	}
	if r.TryLock() {
		t.Fatal("TryLock succeeded on locked record")
	}
	ts2, locked2, visible2 := r.Meta()
	if ts2 != ts || !locked2 || !visible2 {
		t.Fatal("lock bit clobbered timestamp or visibility")
	}
	r.SetTimestamp(MakeTS(4, 9))
	r.SetVisible(false)
	ts3, locked3, visible3 := r.Meta()
	if ts3 != MakeTS(4, 9) || !locked3 || visible3 {
		t.Fatalf("after updates: (%d, %v, %v)", ts3, locked3, visible3)
	}
	r.Unlock()
	if r.Locked() {
		t.Fatal("still locked after Unlock")
	}
}

func TestMakeSplitTSQuick(t *testing.T) {
	check := func(e uint32, s uint32) bool {
		e &= (1 << 30) - 1 // epoch half is 30 bits
		ge, gs := SplitTS(MakeTS(e, s))
		return ge == e && gs == s
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampOrderPreserved(t *testing.T) {
	// Timestamps must order first by epoch, then by sequence.
	if MakeTS(1, 0xFFFFFFFF) >= MakeTS(2, 0) {
		t.Fatal("epoch boundary breaks ordering")
	}
	if MakeTS(5, 10) >= MakeTS(5, 11) {
		t.Fatal("sequence ordering broken")
	}
}

func TestTupleSwapIsAtomicish(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(0), Str("a")}, 0, true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tu := r.Tuple()
				// A reader must always see a consistent pair.
				if tu[0].Int() >= 0 && tu[1].Str() == "" {
					t.Error("torn tuple read")
					return
				}
			}
		}()
	}
	for i := int64(1); i < 5000; i++ {
		r.SetTuple(Tuple{Int(i), Str("b")})
	}
	close(stop)
	wg.Wait()
}

func TestPackKeyComponents(t *testing.T) {
	widths := []uint8{16, 8, 24}
	k := PackKey([]uint64{513, 7, 99999}, widths)
	if got := k.Component(0, widths); got != 513 {
		t.Errorf("component 0 = %d", got)
	}
	if got := k.Component(1, widths); got != 7 {
		t.Errorf("component 1 = %d", got)
	}
	if got := k.Component(2, widths); got != 99999 {
		t.Errorf("component 2 = %d", got)
	}
	// Lexicographic component order must match numeric key order.
	k2 := PackKey([]uint64{513, 8, 0}, widths)
	if k >= k2 {
		t.Fatal("component order not preserved by packing")
	}
}

func TestPackKeyRoundTripQuick(t *testing.T) {
	widths := []uint8{16, 8, 24, 8}
	check := func(a uint16, b uint8, c uint32, d uint8) bool {
		c &= (1 << 24) - 1
		k := PackKey([]uint64{uint64(a), uint64(b), uint64(c), uint64(d)}, widths)
		return k.Component(0, widths) == uint64(a) &&
			k.Component(1, widths) == uint64(b) &&
			k.Component(2, widths) == uint64(c) &&
			k.Component(3, widths) == uint64(d)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on component overflow")
		}
	}()
	PackKey([]uint64{256}, []uint8{8})
}

func TestValueKindsAndEquality(t *testing.T) {
	if !Int(5).Equal(Int(5)) || Int(5).Equal(Int(6)) {
		t.Fatal("int equality broken")
	}
	if !Str("x").Equal(Str("x")) || Str("x").Equal(Str("y")) {
		t.Fatal("string equality broken")
	}
	if Int(1).Equal(Str("1")) {
		t.Fatal("cross-kind equality")
	}
	if Float(2.5).Float() != 2.5 {
		t.Fatal("float round trip")
	}
	if Float(2.5).Int() != 2 {
		t.Fatal("float->int coercion")
	}
	if Int(3).Float() != 3.0 {
		t.Fatal("int->float coercion")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Fatal("null detection")
	}
	if Null.String() != "NULL" || Int(7).String() != "7" || Str("hi").String() != "hi" {
		t.Fatal("String() rendering")
	}
}

func TestTableGetOrCreateDummy(t *testing.T) {
	tab := NewTable(0, Schema{
		Name:    "T",
		Columns: []ColumnDef{{Name: "v", Kind: KindInt}},
		Ordered: true,
	})
	rec, created := tab.GetOrCreateDummy(42)
	if !created {
		t.Fatal("first call did not create")
	}
	if rec.Visible() {
		t.Fatal("dummy is visible")
	}
	if rec.Refs() != 1 {
		t.Fatalf("refs = %d, want 1 (pinned)", rec.Refs())
	}
	rec2, created2 := tab.GetOrCreateDummy(42)
	if created2 || rec2 != rec {
		t.Fatal("second call did not return the same record")
	}
	// The dummy must be in the ordered index so later scans can
	// observe its visibility flip.
	found := false
	tab.RangeWalk(0, 100, func(_ *btree.Leaf[uint64, *Record], recs []*Record) bool {
		for _, r := range recs {
			found = found || r.Key() == 42 && r == rec
		}
		return true
	})
	if !found {
		t.Fatal("dummy not in ordered index")
	}
}

func TestGCReclaimsUnpinnedInvisible(t *testing.T) {
	cat := NewCatalog()
	tab := cat.MustCreateTable(Schema{
		Name:    "T",
		Columns: []ColumnDef{{Name: "v", Kind: KindInt}},
		Ordered: true,
	})
	gc := NewGC(cat)

	rec, _ := tab.GetOrCreateDummy(1) // pinned
	gc.Retire(rec)
	if n := gc.Collect(); n != 0 {
		t.Fatalf("reclaimed %d pinned records", n)
	}
	rec.Unpin()
	if n := gc.Collect(); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	if _, ok := tab.Peek(1); ok {
		t.Fatal("record still reachable after reclaim")
	}
	if tab.Len() != 0 {
		t.Fatalf("table len = %d", tab.Len())
	}
}

func TestGCSkipsResurrected(t *testing.T) {
	cat := NewCatalog()
	tab := cat.MustCreateTable(Schema{
		Name:    "T",
		Columns: []ColumnDef{{Name: "v", Kind: KindInt}},
	})
	gc := NewGC(cat)
	rec, _ := tab.GetOrCreateDummy(1)
	rec.Unpin()
	gc.Retire(rec)
	// A later transaction committed an insert into the dummy slot.
	rec.SetVisible(true)
	if n := gc.Collect(); n != 0 {
		t.Fatalf("reclaimed %d resurrected records", n)
	}
	if _, ok := tab.Peek(1); !ok {
		t.Fatal("resurrected record vanished")
	}
	if gc.Pending() != 0 {
		t.Fatal("resurrected record still queued")
	}
}

func TestSecondaryReindexOnUpdate(t *testing.T) {
	tab := NewTable(0, Schema{
		Name:    "T",
		Columns: []ColumnDef{{Name: "name", Kind: KindString}},
		Secondaries: []SecondaryDef{{
			Name: "by_name",
			Key:  func(pk Key, tu Tuple) string { return tu[0].Str() },
		}},
	})
	rec := tab.Put(1, Tuple{Str("alice")}, 0)
	old := rec.Tuple()
	newT := Tuple{Str("bob")}
	rec.SetTuple(newT)
	tab.ReindexSecondaries(rec, old, newT)

	entries := func(lo, hi string) (n int) {
		tab.SecondaryWalk(0, lo, hi, func(_ *btree.Leaf[string, *Record], recs []*Record) bool {
			for _, r := range recs {
				if r != rec {
					t.Fatalf("secondary [%q, %q] holds a stranger", lo, hi)
				}
			}
			n += len(recs)
			return true
		})
		return n
	}
	if entries("", "\xff") != 1 || entries("bob", "bob") != 1 || entries("alice", "alice") != 0 {
		t.Fatalf("secondary entries: %d in all, %d under bob, %d under alice", entries("", "\xff"), entries("bob", "bob"), entries("alice", "alice"))
	}
}

func TestRWLock(t *testing.T) {
	var l RWLock
	if !l.TryRLock() || !l.TryRLock() {
		t.Fatal("shared locks failed")
	}
	if l.TryWLock() {
		t.Fatal("writer acquired over readers")
	}
	if l.TryUpgrade() {
		t.Fatal("upgrade with two readers succeeded")
	}
	l.RUnlock()
	if !l.TryUpgrade() {
		t.Fatal("sole-reader upgrade failed")
	}
	if l.TryRLock() {
		t.Fatal("reader acquired over writer")
	}
	l.WUnlock()
	if !l.TryWLock() {
		t.Fatal("writer after release failed")
	}
	l.WUnlock()
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	a := cat.MustCreateTable(Schema{Name: "A", Columns: []ColumnDef{{Name: "x", Kind: KindInt}}})
	if _, err := cat.CreateTable(Schema{Name: "A"}); err == nil {
		t.Fatal("duplicate table name accepted")
	}
	b := cat.MustCreateTable(Schema{Name: "B", Columns: []ColumnDef{{Name: "y", Kind: KindInt}}})
	if got, _ := cat.Table("A"); got != a {
		t.Fatal("lookup by name failed")
	}
	if cat.TableByID(1) != b {
		t.Fatal("lookup by id failed")
	}
	if len(cat.Tables()) != 2 {
		t.Fatal("table list wrong")
	}
}
