package btree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestInsertGetDelete(t *testing.T) {
	tr := New[uint64, int]()
	const n = 5000
	for i := 0; i < n; i++ {
		if !tr.Insert(uint64(i*7%n), i) {
			t.Fatalf("insert %d reported existing", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(uint64(i))
		if !ok {
			t.Fatalf("missing key %d", i)
		}
		if uint64(v*7%n) != uint64(i) {
			t.Fatalf("key %d has value %d", i, v)
		}
	}
	if _, ok := tr.Get(n + 1); ok {
		t.Fatal("found key that was never inserted")
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("len after deletes = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(uint64(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New[uint64, string]()
	tr.Insert(1, "a")
	if tr.Insert(1, "b") {
		t.Fatal("second insert of same key reported new")
	}
	if v, _ := tr.Get(1); v != "b" {
		t.Fatalf("value = %q, want b", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	tr := New[uint64, int]()
	keys := rand.New(rand.NewSource(1)).Perm(2000)
	for _, k := range keys {
		tr.Insert(uint64(k*3), k)
	}
	var got []uint64
	scan(tr.Walk, 300, 2400, func(k uint64, _ int) bool {
		got = append(got, k)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
	for _, k := range got {
		if k < 300 || k > 2400 || k%3 != 0 {
			t.Fatalf("scan returned out-of-range key %d", k)
		}
	}
	want := 0
	for _, k := range keys {
		if u := uint64(k * 3); u >= 300 && u <= 2400 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("scan returned %d keys, want %d", len(got), want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New[uint64, int]()
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), i)
	}
	n := 0
	scan(tr.Walk, 0, 99, func(uint64, int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
}

func TestLeafVersionBumpsOnInsert(t *testing.T) {
	tr := New[uint64, int]()
	for i := 0; i < 10; i++ {
		tr.Insert(uint64(i*10), i)
	}
	refs := scan(tr.Walk, 0, 1000, func(uint64, int) bool { return true })
	if len(refs) == 0 {
		t.Fatal("no leaf refs")
	}
	for _, r := range refs {
		if r.Changed() {
			t.Fatal("leaf changed before any modification")
		}
	}
	tr.Insert(55, 55) // lands inside the scanned range
	changed := false
	for _, r := range refs {
		if r.Changed() {
			changed = true
		}
	}
	if !changed {
		t.Fatal("insert into scanned range not detected by leaf versions (phantom!)")
	}
}

func TestLeafVersionBumpsOnDelete(t *testing.T) {
	tr := New[uint64, int]()
	for i := 0; i < 10; i++ {
		tr.Insert(uint64(i), i)
	}
	refs := scan(tr.Walk, 0, 9, func(uint64, int) bool { return true })
	tr.Delete(5)
	changed := false
	for _, r := range refs {
		if r.Changed() {
			changed = true
		}
	}
	if !changed {
		t.Fatal("delete inside scanned range not detected")
	}
}

func TestVersionStableOutsideRange(t *testing.T) {
	tr := New[uint64, int]()
	// Two far-apart clusters so they land in different leaves.
	for i := 0; i < 200; i++ {
		tr.Insert(uint64(i), i)
		tr.Insert(uint64(100000+i), i)
	}
	refs := scan(tr.Walk, 0, 199, func(uint64, int) bool { return true })
	tr.Insert(150000, 1) // far outside the scanned range
	for _, r := range refs {
		if r.Changed() {
			t.Fatal("insert far outside range bumped a scanned leaf")
		}
	}
}

func TestDeleteIf(t *testing.T) {
	tr := New[uint64, int]()
	tr.Insert(1, 10)
	if tr.DeleteIf(1, func(v int) bool { return v == 99 }) {
		t.Fatal("DeleteIf removed despite failing predicate")
	}
	if _, ok := tr.Get(1); !ok {
		t.Fatal("key vanished")
	}
	if !tr.DeleteIf(1, func(v int) bool { return v == 10 }) {
		t.Fatal("DeleteIf refused matching predicate")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("key survived DeleteIf")
	}
}

// scanFirst is the oldest-entry probe (TPC-C Delivery's NEW-ORDER
// lookup): a scan stopped after its first pair.
func scanFirst(walk func(lo, hi uint64, fn func(*Leaf[uint64, int], []uint64, []int) bool) bool, lo, hi uint64) (k uint64, v int, ok bool) {
	scan(walk, lo, hi, func(fk uint64, fv int) bool {
		k, v, ok = fk, fv, true
		return false
	})
	return k, v, ok
}

func TestMin(t *testing.T) {
	tr := New[uint64, int]()
	for _, k := range []uint64{50, 10, 90, 30} {
		tr.Insert(k, int(k))
	}
	k, v, ok := scanFirst(tr.Walk, 20, 80)
	if !ok || k != 30 || v != 30 {
		t.Fatalf("first of [20,80] = %d,%d,%v", k, v, ok)
	}
	if _, _, ok = scanFirst(tr.Walk, 91, 100); ok {
		t.Fatal("found a key in an empty range")
	}
}

// TestQuickAgainstMap drives random operation sequences against a
// reference map (property-based, testing/quick).
func TestQuickAgainstMap(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
		Val  int
	}
	check := func(ops []op) bool {
		tr := New[uint64, int]()
		ref := map[uint64]int{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0:
				tr.Insert(k, o.Val)
				ref[k] = o.Val
			case 1:
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := tr.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Full scan must enumerate exactly the reference contents in
		// order.
		var keys []uint64
		scan(tr.Walk, 0, 1<<63, func(k uint64, v int) bool {
			if rv, ok := ref[k]; !ok || rv != v {
				t.Logf("scan mismatch at %d", k)
				return false
			}
			keys = append(keys, k)
			return true
		})
		return len(keys) == len(ref) && sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	tr := New[uint64, int]()
	for i := 0; i < 1000; i++ {
		tr.Insert(uint64(i*2), i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint64(rng.Intn(1500))
				prev := uint64(0)
				scan(tr.Walk, lo, lo+100, func(k uint64, _ int) bool {
					if k < prev {
						t.Error("scan went backwards under concurrency")
						return false
					}
					prev = k
					return true
				})
			}
		}(int64(r))
	}
	for i := 0; i < 2000; i++ {
		tr.Insert(uint64(i*2+1), i)
		if i%3 == 0 {
			tr.Delete(uint64(i * 2))
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedOrderedAcrossShards(t *testing.T) {
	s := NewSharded[int](8) // shards cover 256-key ranges
	keys := rand.New(rand.NewSource(2)).Perm(4096)
	for _, k := range keys {
		s.Insert(uint64(k), k)
	}
	if s.Len() != 4096 {
		t.Fatalf("len = %d", s.Len())
	}
	var got []uint64
	scan(s.Walk, 100, 3000, func(k uint64, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2901 {
		t.Fatalf("scan count = %d, want 2901", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("cross-shard scan out of order")
	}
}

func TestShardedMinAndDelete(t *testing.T) {
	s := NewSharded[int](4)
	for _, k := range []uint64{100, 17, 63, 900} {
		s.Insert(k, int(k))
	}
	k, _, ok := scanFirst(s.Walk, 18, 1000)
	if !ok || k != 63 {
		t.Fatalf("first of [18,1000] = %d, %v", k, ok)
	}
	if !s.Delete(63) {
		t.Fatal("delete failed")
	}
	k, _, ok = scanFirst(s.Walk, 18, 1000)
	if !ok || k != 100 {
		t.Fatalf("first of [18,1000] after delete = %d, %v", k, ok)
	}
	if v, ok := s.Get(17); !ok || v != 17 {
		t.Fatal("Get(17) failed")
	}
}

// TestShardedWalkObservesMissingShard: a validating scan over a range
// whose shards do not all exist yet records the absent leaf once, and
// the creation of a shard in the range, or anywhere, changes it; a
// range whose shards all exist records only leaves.
func TestShardedWalkObservesMissingShard(t *testing.T) {
	s := NewSharded[int](8) // shards cover 256-key ranges
	s.Insert(1, 1)
	all := func(uint64, int) bool { return true }
	refs := scan(s.Walk, 1, 1000, all)
	if len(refs) != 2 || refs[1] != s.absent.Ref() {
		t.Fatalf("scan over shard 0 and missing shards 1-3: %d observations, want the leaf and the absent leaf", len(refs))
	}
	inShard := scan(s.Walk, 0, 255, all)
	s.Insert(2, 2) // shard 0 exists: the absent leaf stays put
	if refs[1].Changed() || !refs[0].Changed() || !inShard[0].Changed() || len(inShard) != 1 {
		t.Fatal("insert into an existing shard: wrong observations changed")
	}
	refs = scan(s.Walk, 1, 1000, all)
	s.Insert(300, 300) // creates shard 1: the phantom
	if !refs[1].Changed() {
		t.Fatal("shard created inside the scanned range not detected (phantom!)")
	}
	var keys []uint64
	scan(s.Walk, 1, 1000, func(k uint64, _ int) bool {
		keys = append(keys, k)
		return true
	})
	if !slices.Equal(keys, []uint64{1, 2, 300}) {
		t.Fatalf("rescan: keys %v", keys)
	}
}

// TestShardedWalkSkipsMissingShards: a walk over the whole key space at
// shift 8 — 2^56 prefixes — with keys in three non-adjacent shards
// returns every key and hands out the absent leaf exactly once. It runs
// under a 5 s guard: a walk that stepped through every prefix would not
// end.
func TestShardedWalkSkipsMissingShards(t *testing.T) {
	// Shards cover 256-key ranges; the keys lie in prefixes 5, 1000 and
	// 2^40, and none after.
	s := NewSharded[int](8)
	want := []uint64{5 << 8, 5<<8 | 7, 1000<<8 | 1, 1<<48 | 3}
	for i, k := range want {
		s.Insert(k, i)
	}
	var keys []uint64
	done := make(chan []ScanRef, 1)
	go func() {
		done <- scan(s.Walk, 0, math.MaxUint64, func(k uint64, _ int) bool {
			keys = append(keys, k)
			return true
		})
	}()
	select {
	case refs := <-done:
		if !slices.Equal(keys, want) {
			t.Fatalf("Walk(0, MaxUint64): keys %#x, want %#x", keys, want)
		}
		absent := 0
		for _, r := range refs {
			if r == s.absent.Ref() {
				absent++
			}
		}
		if absent != 1 || len(refs) != 4 {
			t.Fatalf("Walk(0, MaxUint64): %d observations, %d of the absent leaf; want one leaf per shard and the absent leaf once", len(refs), absent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Walk(0, MaxUint64) at shift 8 did not finish in 5s: it steps through prefixes with no shard")
	}
}

// TestShardedWalkBesideShardCreation walks the whole key space while
// another goroutine creates shards out of order: every walk sees keys
// in ascending order, each with its own value, and at least the shards
// created before it started.
func TestShardedWalkBesideShardCreation(t *testing.T) {
	s := NewSharded[int](8)
	const shards = 400
	order := rand.New(rand.NewSource(49)).Perm(shards)
	var created atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := created.Load()
				var keys []uint64
				scan(s.Walk, 0, math.MaxUint64, func(k uint64, v int) bool {
					if v != int(k>>8) {
						t.Errorf("key %#x carries %d", k, v)
					}
					keys = append(keys, k)
					return true
				})
				if !slices.IsSorted(keys) || int64(len(keys)) < before {
					t.Errorf("walk of %d keys (%d created before it): sorted %v", len(keys), before, slices.IsSorted(keys))
					return
				}
			}
		}()
	}
	for _, p := range order {
		s.Insert(uint64(p)<<20, p<<12)
		created.Add(1)
	}
	close(stop)
	wg.Wait()
}

// leafFill walks the leaf chain and returns the mean fill, failing on
// any leaf whose arrays outgrew the fan-out (a regrown backing array
// is memory no key will ever use).
func leafFill(t *testing.T, tr *Tree[uint64, int]) float64 {
	t.Helper()
	leaves, keys := 0, 0
	for l := tr.leafFor(0); l != nil; l = l.next {
		if cap(l.keys) > maxKeys+1 || cap(l.vals) > maxKeys+1 {
			t.Fatalf("leaf %d: cap(keys)=%d cap(vals)=%d, fan-out is %d", leaves, cap(l.keys), cap(l.vals), maxKeys)
		}
		leaves++
		keys += len(l.keys)
	}
	if keys != tr.Len() {
		t.Fatalf("leaf chain holds %d keys, tree says %d", keys, tr.Len())
	}
	return float64(keys) / float64(leaves*maxKeys)
}

func TestLeafFill(t *testing.T) {
	const n = 10000
	for _, c := range []struct {
		name string
		key  func(i int) uint64
		min  float64
	}{
		{"ascending", func(i int) uint64 { return uint64(i) }, 0.9},
		{"descending", func(i int) uint64 { return uint64(n - i) }, 0.5},
		{"random", func() func(int) uint64 {
			rng := rand.New(rand.NewSource(1))
			return func(int) uint64 { return rng.Uint64() }
		}(), 0.5},
	} {
		tr := New[uint64, int]()
		for i := 0; i < n; i++ {
			tr.Insert(c.key(i), i)
		}
		if fill := leafFill(t, tr); fill < c.min {
			t.Errorf("%s inserts: mean leaf fill %.2f, want >= %.2f", c.name, fill, c.min)
		}
		prev, first := uint64(0), true
		scan(tr.Walk, 0, ^uint64(0), func(k uint64, _ int) bool {
			if !first && k <= prev {
				t.Fatalf("%s inserts: scan out of order at %d after %d", c.name, k, prev)
			}
			prev, first = k, false
			return true
		})
	}
}

// TestScanStraddlesTailSplit: a key appended past a full leaf moves
// alone into a new leaf. A scan whose range ran past that leaf's last
// key must see the split as a change, and a rescan must cover both
// leaves so the next append is caught too.
func TestScanStraddlesTailSplit(t *testing.T) {
	tr := New[uint64, int]()
	for i := 0; i < maxKeys; i++ {
		tr.Insert(uint64(i), i)
	}
	rescan := func() (keys []uint64, refs []ScanRef) {
		refs = scan(tr.Walk, maxKeys-3, maxKeys+3, func(k uint64, _ int) bool {
			keys = append(keys, k)
			return true
		})
		return keys, refs
	}
	keys, refs := rescan()
	if len(keys) != 3 || len(refs) != 1 {
		t.Fatalf("before the split: keys %v over %d leaves", keys, len(refs))
	}
	tr.Insert(maxKeys, maxKeys) // tail split
	if !refs[0].Changed() {
		t.Fatal("tail split not visible to a scan that ran past the leaf's last key (phantom!)")
	}
	if l := tr.leafFor(0); refs[0].word != &l.version || len(l.keys) != maxKeys || l.next == nil || len(l.next.keys) != 1 {
		t.Fatalf("tail split left %d keys behind and moved %d", len(l.keys), len(l.next.keys))
	}
	keys, refs = rescan()
	if len(keys) != 4 || keys[3] != maxKeys || len(refs) != 2 {
		t.Fatalf("after the split: keys %v over %d leaves", keys, len(refs))
	}
	tr.Insert(maxKeys+1, 0)
	if refs[0].Changed() || !refs[1].Changed() {
		t.Fatalf("append after the split: left changed=%v right changed=%v", refs[0].Changed(), refs[1].Changed())
	}
}
