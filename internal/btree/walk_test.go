package btree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// parentTreeScan is the leaf loop Tree.Scan ran before Walk existed,
// kept as the reference for the observations a validating scan over
// Walk must still make: one (leaf, version) per leaf visited, boundary
// leaves included.
func parentTreeScan[K ~uint64, V any](t *Tree[K, V], lo, hi K, fn func(k K, v V) bool) []ScanRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var refs []ScanRef
	l := t.leafFor(lo)
	for l != nil {
		refs = append(refs, ScanRef{&l.version, l.version.Load()})
		for i, k := range l.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return refs
			}
			if !fn(k, l.vals[i]) {
				return refs
			}
		}
		if n := len(l.keys); n > 0 && l.keys[n-1] > hi {
			return refs
		}
		l = l.next
	}
	return refs
}

// parentShardedScan is Sharded.Scan as it was over parentTreeScan,
// which recorded nothing for a missing shard.
func parentShardedScan[V any](s *Sharded[V], lo, hi uint64, fn func(k uint64, v V) bool) []ScanRef {
	var refs []ScanRef
	stop := false
	for p := s.prefix(lo); p <= s.prefix(hi) && !stop; p++ {
		if t := s.shard(p, false); t != nil {
			r := parentTreeScan(t, lo, hi, func(k uint64, v V) bool {
				ok := fn(k, v)
				stop = !ok
				return ok
			})
			refs = append(refs, r...)
		}
		if p == s.prefix(hi) {
			break
		}
	}
	return refs
}

// model is the sorted reference the walk is checked against.
type model map[uint64]int

func (m model) between(lo, hi uint64) (keys []uint64) {
	for k := range m {
		if lo <= k && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// walker is the surface Tree and Sharded share.
type walker interface {
	Walk(lo, hi uint64, fn func(l *Leaf[uint64, int], keys []uint64, vals []int) bool) bool
}

// scan is a validating range scan over Walk, as the engine runs one:
// the Ref of every leaf handed out, then fn pair by pair.
func scan[K cmp.Ordered, V any](walk func(K, K, func(*Leaf[K, V], []K, []V) bool) bool, lo, hi K, fn func(K, V) bool) (refs []ScanRef) {
	walk(lo, hi, func(l *Leaf[K, V], keys []K, vals []V) bool {
		refs = append(refs, l.Ref())
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return false
			}
		}
		return true
	})
	return refs
}

// TestWalkAgainstModel drives a Tree and a Sharded (shift 60, so
// ranges cross shards, and only some prefixes are ever populated)
// through random inserts, replacements, deletes and splits, and checks
// Walk and a scan over it against a sorted model over ranges that
// include lo > hi, emptied leaves, missing shards and hi = MaxUint64,
// stopping early at every position. The scan's observations must equal
// the pre-Walk loop's, plus the absent leaf's exactly when the walk
// passed a missing shard.
func TestWalkAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	prefixes := []uint64{0, 1, 3, 7, 8, 15} // 2, 4–6 and 9–14 stay missing
	key := func() uint64 {
		p := prefixes[rng.Intn(len(prefixes))]
		off := uint64(rng.Intn(3000))
		if p == 15 && rng.Intn(2) == 0 {
			return math.MaxUint64 - off
		}
		return p<<60 | off
	}
	tr, sh, m := New[uint64, int](), NewSharded[int](60), model{}
	put := func(k uint64, v int) {
		tr.Insert(k, v)
		sh.Insert(k, v)
		m[k] = v
	}
	del := func(k uint64) {
		_, in := m[k]
		if tr.Delete(k) != in || sh.Delete(k) != in {
			t.Fatalf("delete %#x: present %v, a tree disagreed", k, in)
		}
		delete(m, k)
	}
	bound := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		case 2:
			return uint64(rng.Intn(16)) << 60 // a shard's first key, populated or not
		case 3:
			return uint64(rng.Intn(16))<<60 - 1 // the previous shard's last key
		default:
			return key() + uint64(rng.Intn(3)) - 1
		}
	}

	cases := []struct {
		name   string
		w      walker
		parent func(lo, hi uint64, fn func(uint64, int) bool) []ScanRef
		// missed reports whether a walk from lo passes a missing
		// shard up to the prefix of last.
		missed func(lo, last uint64) bool
	}{
		{"tree", tr, func(lo, hi uint64, fn func(uint64, int) bool) []ScanRef {
			return parentTreeScan(tr, lo, hi, fn)
		}, func(uint64, uint64) bool { return false }},
		{"sharded", sh, func(lo, hi uint64, fn func(uint64, int) bool) []ScanRef {
			return parentShardedScan(sh, lo, hi, fn)
		}, func(lo, last uint64) bool {
			for p := lo >> 60; p <= last>>60; p++ {
				if sh.shards[p] == nil {
					return true
				}
			}
			return false
		}},
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 600; i++ {
			put(key(), rng.Int())
		}
		for i := 0; i < 150; i++ {
			del(key())
		}
		// Empty a run of leaves: Delete never merges, so the emptied
		// leaves stay on the chain.
		lo := key()
		for k := lo; k < lo+200 && k >= lo; k++ {
			del(k)
		}
		for q := 0; q < 40; q++ {
			lo, hi := bound(), bound()
			if q%8 == 0 {
				hi = math.MaxUint64
			}
			if q%8 == 1 && lo < hi {
				lo, hi = hi, lo
			}
			want := m.between(lo, hi)
			for _, c := range cases {
				checkWalk(t, c.name, c.w, m, lo, hi, want)
				all := func(uint64, int) bool { return true }
				absent := sh.absent.Ref()
				checkScan(t, c.name, c.w, m, lo, hi, want, -1, c.parent(lo, hi, all), absent, c.missed(lo, hi))
				if len(want) > 300 {
					continue
				}
				for stop := range want {
					checkScan(t, c.name, c.w, m, lo, hi, want, stop, c.parent(lo, hi, stopAt(stop)), absent, c.missed(lo, want[stop]))
				}
			}
		}
	}
}

// stopAt returns a scan callback that stops on its stop-th pair
// (counting from 0).
func stopAt(stop int) func(uint64, int) bool {
	n := 0
	return func(uint64, int) bool {
		n++
		return n <= stop
	}
}

// checkWalk runs Walk to the end and then stopped after every leaf.
func checkWalk(t *testing.T, name string, w walker, m model, lo, hi uint64, want []uint64) {
	t.Helper()
	var got []uint64
	leaves := 0
	done := w.Walk(lo, hi, func(_ *Leaf[uint64, int], keys []uint64, vals []int) bool {
		leaves++
		for i, k := range keys {
			if vals[i] != m[k] {
				t.Fatalf("%s walk [%#x, %#x]: key %#x carries %d, want %d", name, lo, hi, k, vals[i], m[k])
			}
		}
		got = append(got, keys...)
		return true
	})
	if !done || !slices.Equal(got, want) {
		t.Fatalf("%s walk [%#x, %#x]: done %v, %d keys, want %d", name, lo, hi, done, len(got), len(want))
	}
	for stop := 1; stop <= leaves; stop++ {
		got, n := got[:0], 0
		done := w.Walk(lo, hi, func(_ *Leaf[uint64, int], keys []uint64, _ []int) bool {
			n++
			got = append(got, keys...)
			return n < stop
		})
		if done || n != stop || len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("%s walk [%#x, %#x] stopped after leaf %d of %d: done %v after %d leaves, keys not a prefix", name, lo, hi, stop, leaves, done, n)
		}
	}
}

// checkScan runs scan, stopping on the stop-th pair (never when stop
// is negative), and compares its pairs with the model and its
// observations with parent's: the same leaves and versions in order,
// once the absent leaf's observation, made iff missed, is taken out.
func checkScan(t *testing.T, name string, w walker, m model, lo, hi uint64, want []uint64, stop int, parent []ScanRef, absent ScanRef, missed bool) {
	t.Helper()
	var got []uint64
	refs := scan(w.Walk, lo, hi, func(k uint64, v int) bool {
		if v != m[k] {
			t.Fatalf("%s scan [%#x, %#x]: key %#x carries %d, want %d", name, lo, hi, k, v, m[k])
		}
		got = append(got, k)
		return stop < 0 || len(got) <= stop
	})
	if stop >= 0 {
		want = want[:stop+1]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s scan [%#x, %#x] stop %d: %d keys, want %d", name, lo, hi, stop, len(got), len(want))
	}
	leaves := slices.DeleteFunc(slices.Clone(refs), func(r ScanRef) bool { return r == absent })
	if n := len(refs) - len(leaves); (n == 1) != missed || n > 1 {
		t.Fatalf("%s scan [%#x, %#x] stop %d: %d absent-shard observations, passed a missing shard: %v", name, lo, hi, stop, n, missed)
	}
	if !slices.Equal(leaves, parent) {
		t.Fatalf("%s scan [%#x, %#x] stop %d: %d leaf observations, the pre-Walk loop made %d", name, lo, hi, stop, len(leaves), len(parent))
	}
}
