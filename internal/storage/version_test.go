package storage

import (
	"testing"
)

// boundary returns the snapshot timestamp just below epoch f — the
// only form the engine ever hands to SnapshotAt.
func boundary(f uint32) uint64 { return MakeTS(f, 0) - 1 }

func TestNeedsVersion(t *testing.T) {
	cases := []struct {
		old, new uint64
		want     bool
	}{
		{MakeTS(3, 1), MakeTS(3, 2), false},  // same epoch: no boundary between
		{MakeTS(3, 1), MakeTS(4, 0), true},   // adjacent epochs
		{MakeTS(3, 9), MakeTS(100, 0), true}, // distant epochs
		{MakeTS(3, 0), MakeTS(3, 1<<20), false},
	}
	for _, c := range cases {
		if got := NeedsVersion(c.old, c.new); got != c.want {
			t.Errorf("NeedsVersion(%#x, %#x) = %v, want %v", c.old, c.new, got, c.want)
		}
	}
}

// overwrite mimics the commit path's install discipline: push the
// outgoing image if a snapshot may need it, then mutate and restamp.
func overwrite(r *Record, tuple Tuple, ts uint64) {
	r.InstallVersion(ts)
	r.SetTuple(tuple)
	r.SetTimestamp(ts)
}

func TestSnapshotAtResolvesHistoricalImages(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(10)}, MakeTS(2, 1), true)
	overwrite(r, Tuple{Int(20)}, MakeTS(4, 1)) // crosses 2→4: pushes image 10
	overwrite(r, Tuple{Int(30)}, MakeTS(4, 9)) // same epoch: no push
	overwrite(r, Tuple{Int(40)}, MakeTS(7, 2)) // crosses 4→7: pushes image 30

	if n := r.VersionLen(); n != 2 {
		t.Fatalf("VersionLen = %d, want 2 (same-epoch overwrite must not push)", n)
	}
	cases := []struct {
		s       uint64
		want    int64
		present bool
	}{
		{boundary(2), 0, false}, // before first insert
		{boundary(3), 10, true}, // between MakeTS(2,1) and MakeTS(4,1)
		{boundary(4), 10, true},
		{boundary(5), 30, true}, // image 20 was superseded same-epoch: 30 covers [4,1)-(7,2)
		{boundary(7), 30, true},
		{boundary(8), 40, true}, // current image
	}
	for _, c := range cases {
		tuple, ok := r.SnapshotAt(c.s)
		if ok != c.present {
			t.Fatalf("SnapshotAt(%#x) present = %v, want %v", c.s, ok, c.present)
		}
		if ok && tuple[0].Int() != c.want {
			t.Errorf("SnapshotAt(%#x) = %d, want %d", c.s, tuple[0].Int(), c.want)
		}
	}
}

func TestSnapshotAtDeleteGap(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(10)}, MakeTS(2, 1), true)
	// Delete in epoch 4: push the pre-delete image, then go invisible.
	r.InstallVersion(MakeTS(4, 3))
	r.SetVisible(false)
	r.SetTimestamp(MakeTS(4, 3))
	// Re-insert in epoch 6: the record is invisible, so no push — the
	// gap [4,3)..(6,5) is represented by the chain head's end stamp.
	r.InstallVersion(MakeTS(6, 5))
	r.SetTuple(Tuple{Int(99)})
	r.SetVisible(true)
	r.SetTimestamp(MakeTS(6, 5))

	if tuple, ok := r.SnapshotAt(boundary(4)); !ok || tuple[0].Int() != 10 {
		t.Fatalf("snapshot before delete: (%v, %v), want (10, true)", tuple, ok)
	}
	if _, ok := r.SnapshotAt(boundary(5)); ok {
		t.Fatal("snapshot in the delete gap sees the record as present")
	}
	if _, ok := r.SnapshotAt(boundary(6)); ok {
		t.Fatal("snapshot at the re-insert epoch's floor sees the record as present")
	}
	if tuple, ok := r.SnapshotAt(boundary(7)); !ok || tuple[0].Int() != 99 {
		t.Fatalf("snapshot after re-insert: (%v, %v), want (99, true)", tuple, ok)
	}
}

// Mid-install detection: a pushed-but-not-restamped head (begin equals
// the record's stamp) must route the reader to the chain, never to the
// half-installed in-record state.
func TestSnapshotAtMidInstall(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(10)}, MakeTS(2, 1), true)
	r.InstallVersion(MakeTS(4, 1)) // push, but do NOT SetTuple/SetTimestamp yet
	if tuple, ok := r.SnapshotAt(boundary(3)); !ok || tuple[0].Int() != 10 {
		t.Fatalf("mid-install snapshot = (%v, %v), want (10, true)", tuple, ok)
	}
	// The in-flight commit (epoch 4) is above every valid snapshot, so
	// no boundary can observe the new image yet; boundary(4) still
	// resolves to the old image through the chain.
	if tuple, ok := r.SnapshotAt(boundary(4)); !ok || tuple[0].Int() != 10 {
		t.Fatalf("mid-install snapshot at boundary(4) = (%v, %v), want (10, true)", tuple, ok)
	}
}

func TestPruneVersions(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(1)}, MakeTS(2, 1), true)
	overwrite(r, Tuple{Int(2)}, MakeTS(3, 1))
	overwrite(r, Tuple{Int(3)}, MakeTS(4, 1))
	overwrite(r, Tuple{Int(4)}, MakeTS(5, 1))
	if n := r.VersionLen(); n != 3 {
		t.Fatalf("VersionLen = %d, want 3", n)
	}

	// Watermark below every end: nothing reclaimable.
	if n, empty := r.PruneVersions(boundary(3)); n != 0 || empty {
		t.Fatalf("prune(boundary 3) = (%d, %v), want (0, false)", n, empty)
	}
	// Watermark passes the two older nodes (ends MakeTS(3,1), MakeTS(4,1)).
	if n, empty := r.PruneVersions(boundary(5)); n != 2 || empty {
		t.Fatalf("prune(boundary 5) = (%d, %v), want (2, false)", n, empty)
	}
	if n := r.VersionLen(); n != 1 {
		t.Fatalf("VersionLen after partial prune = %d, want 1", n)
	}
	// Watermark passes the head too: chain empties.
	if n, empty := r.PruneVersions(boundary(6)); n != 1 || !empty {
		t.Fatalf("prune(boundary 6) = (%d, %v), want (1, true)", n, empty)
	}
	if tuple, ok := r.SnapshotAt(boundary(6)); !ok || tuple[0].Int() != 4 {
		t.Fatalf("current image after full prune = (%v, %v), want (4, true)", tuple, ok)
	}
}

// The version-install path must stay allocation free in the
// same-epoch common case: the read-write fast path pays nothing for
// MVCC until a commit crosses an epoch boundary. The snapshot read is
// pinned alongside it, on the fast path and on the chain walk. Covers
// NeedsVersion, Record.InstallVersion, SnapshotAt and versionAt.
func TestVersionHotPathZeroAlloc(t *testing.T) {
	r := NewRecord(0, 1, Tuple{Int(10)}, MakeTS(3, 1), true)
	seq := uint32(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.InstallVersion(MakeTS(3, seq)) // same epoch: skip the push
		r.SetTimestamp(MakeTS(3, seq))
		seq++
	}); allocs != 0 {
		t.Errorf("same-epoch InstallVersion allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := r.SnapshotAt(boundary(4)); !ok {
			t.Fatal("record invisible")
		}
	}); allocs != 0 {
		t.Errorf("SnapshotAt fast path allocates %.1f per op, want 0", allocs)
	}
	r.InstallVersion(MakeTS(5, 1)) // cross an epoch: the image moves to the chain
	r.SetTimestamp(MakeTS(5, 1))
	if allocs := testing.AllocsPerRun(1000, func() {
		if tuple, ok := r.SnapshotAt(boundary(4)); !ok || tuple[0].Int() != 10 {
			t.Fatal("chain walk lost the epoch-3 image")
		}
	}); allocs != 0 {
		t.Errorf("SnapshotAt chain walk allocates %.1f per op, want 0", allocs)
	}
}
