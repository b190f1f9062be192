// Package btree implements an ordered B+-tree with per-leaf version
// counters, the structure THEDB uses for range-scanned indexes.
//
// Phantom protection (paper §4.7.2, following Silo): every structural
// modification of a leaf — key insertion, key removal, or a split
// that redistributes keys — increments that leaf's version counter.
// Walk hands the caller every leaf it visits; a validating reader
// records each leaf's Ref, and the validation phase re-reads the
// versions and treats any mismatch as a possible phantom, which the
// healing phase resolves by re-executing the scan. A Sharded walk
// hands out one more leaf for a key prefix in range that has no shard
// yet, whose version counts shard creations: the node set then covers
// the leaves that do not exist yet too.
package btree

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"
)

// maxKeys is the fan-out of both leaf and inner nodes.
const maxKeys = 64

// Leaf is an opaque handle to a leaf node, exposed so callers can
// re-check its version during validation. Its key and value arrays
// are allocated once, at the fan-out, and never regrown: a leaf costs
// the same whether a split or an append filled it.
type Leaf[K cmp.Ordered, V any] struct {
	version atomic.Uint64
	keys    []K
	vals    []V
	next    *Leaf[K, V]
}

func newLeaf[K cmp.Ordered, V any](next *Leaf[K, V]) *Leaf[K, V] {
	return &Leaf[K, V]{keys: make([]K, 0, maxKeys), vals: make([]V, 0, maxKeys), next: next}
}

// put inserts k/v at position i. The leaf must have room.
func (l *Leaf[K, V]) put(i int, k K, v V) {
	l.keys = l.keys[:len(l.keys)+1]
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = k
	l.vals = l.vals[:len(l.vals)+1]
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = v
	l.version.Add(1)
}

// Ref observes the leaf's structural version. Taken under the read
// lock of the walk that handed out l, it matches the keys the walk
// saw; Changed may be asked later without any lock.
func (l *Leaf[K, V]) Ref() ScanRef { return ScanRef{&l.version, l.version.Load()} }

type inner[K cmp.Ordered, V any] struct {
	// keys[i] is the smallest key reachable via children[i+1].
	keys     []K
	children []any // *inner or *Leaf
}

// Tree is a concurrency-safe ordered map. Mutations take the tree
// write lock; lookups and scans take the read lock. Leaf versions may
// be re-read lock-free afterwards.
type Tree[K cmp.Ordered, V any] struct {
	mu   sync.RWMutex
	root any // *inner or *Leaf
	size int
}

// New returns an empty tree.
func New[K cmp.Ordered, V any]() *Tree[K, V] {
	return &Tree[K, V]{root: newLeaf[K, V](nil)}
}

// Len returns the number of stored keys.
func (t *Tree[K, V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Get returns the value stored under k.
func (t *Tree[K, V]) Get(k K) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.leafFor(k)
	i, ok := search(l.keys, k)
	if !ok {
		var zero V
		return zero, false
	}
	return l.vals[i], true
}

// Insert stores v under k, replacing any existing value. It reports
// whether a new key was added.
func (t *Tree[K, V]) Insert(k K, v V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	splitKey, splitNode, added := t.insert(t.root, k, v)
	if splitNode != nil {
		t.root = &inner[K, V]{
			keys:     []K{splitKey},
			children: []any{t.root, splitNode},
		}
	}
	if added {
		t.size++
	}
	return added
}

// Delete removes k, reporting whether it was present. Leaves are not
// merged; an emptied leaf stays in place (its version is bumped so
// concurrent scans revalidate), which keeps deletion simple and safe.
func (t *Tree[K, V]) Delete(k K) bool {
	return t.DeleteIf(k, nil)
}

// DeleteIf removes k only when pred(v) holds for the stored value
// (nil pred always removes), evaluated under the tree lock. Garbage
// collection uses this to avoid evicting an index entry that a
// concurrent insert re-created for the same key.
func (t *Tree[K, V]) DeleteIf(k K, pred func(V) bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leafFor(k)
	i, ok := search(l.keys, k)
	if !ok || (pred != nil && !pred(l.vals[i])) {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	l.version.Add(1)
	t.size--
	return true
}

// ScanRef is one leaf-version observation made by a range scan,
// recorded in the caller's read set for phantom validation.
type ScanRef struct {
	word    *atomic.Uint64
	version uint64
}

// Changed reports whether the leaf has been structurally modified
// since the scan observed it.
func (r ScanRef) Changed() bool { return r.word.Load() != r.version }

// Walk visits the pairs with lo <= key <= hi one leaf at a time, in
// ascending order: fn gets each leaf on the way together with its
// in-range run keys[i:j] / vals[i:j], cut by binary search (empty at a
// boundary or emptied leaf). fn returning false stops the walk, and
// Walk reports whether it ran to the end. The tree read lock is held
// throughout, so fn must not retain the slices or mutate the tree;
// Walk itself records nothing, and a validating caller takes each
// leaf's Ref inside fn.
func (t *Tree[K, V]) Walk(lo, hi K, fn func(l *Leaf[K, V], keys []K, vals []V) bool) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l := t.leafFor(lo); l != nil; l = l.next {
		n := len(l.keys)
		i, _ := search(l.keys, lo)
		j := i + sort.Search(n-i, func(x int) bool { return l.keys[i+x] > hi })
		if !fn(l, l.keys[i:j], l.vals[i:j]) {
			return false
		}
		if n > 0 && l.keys[n-1] > hi {
			break
		}
	}
	return true
}

func (t *Tree[K, V]) leafFor(k K) *Leaf[K, V] {
	n := t.root
	for {
		switch x := n.(type) {
		case *Leaf[K, V]:
			return x
		case *inner[K, V]:
			i := sort.Search(len(x.keys), func(i int) bool { return k < x.keys[i] })
			n = x.children[i]
		}
	}
}

// insert descends recursively; when a child splits it returns the
// separator key and new right sibling for the parent to absorb.
func (t *Tree[K, V]) insert(n any, k K, v V) (splitKey K, splitNode any, added bool) {
	switch x := n.(type) {
	case *Leaf[K, V]:
		i, ok := search(x.keys, k)
		if ok {
			x.vals[i] = v
			x.version.Add(1)
			return splitKey, nil, false
		}
		if len(x.keys) < maxKeys {
			x.put(i, k, v)
			return splitKey, nil, true
		}
		// Full leaf: split first, then insert. A key that lands at
		// the tail takes nothing with it, so ascending inserts leave
		// full leaves behind; any other key halves the leaf. Either
		// way both leaves change version: a scan that saw x must
		// notice that part of its range now lives in right.
		mid := maxKeys / 2
		if i == maxKeys {
			mid = maxKeys
		}
		right := newLeaf(x.next)
		right.keys = append(right.keys, x.keys[mid:]...)
		right.vals = append(right.vals, x.vals[mid:]...)
		clear(x.vals[mid:]) // the moved references now live in right
		x.keys, x.vals, x.next = x.keys[:mid], x.vals[:mid], right
		if i < mid {
			x.put(i, k, v)
			right.version.Add(1)
		} else {
			right.put(i-mid, k, v)
			x.version.Add(1)
		}
		return right.keys[0], right, true
	case *inner[K, V]:
		i := sort.Search(len(x.keys), func(i int) bool { return k < x.keys[i] })
		sk, sn, add := t.insert(x.children[i], k, v)
		if sn != nil {
			x.keys = append(x.keys, sk)
			copy(x.keys[i+1:], x.keys[i:])
			x.keys[i] = sk
			x.children = append(x.children, nil)
			copy(x.children[i+2:], x.children[i+1:])
			x.children[i+1] = sn
			if len(x.keys) > maxKeys {
				mid := len(x.keys) / 2
				sepKey := x.keys[mid]
				right := &inner[K, V]{}
				right.keys = append(right.keys, x.keys[mid+1:]...)
				right.children = append(right.children, x.children[mid+1:]...)
				x.keys = x.keys[:mid:mid]
				x.children = x.children[: mid+1 : mid+1]
				return sepKey, right, add
			}
		}
		return splitKey, nil, add
	}
	panic("btree: unknown node type")
}

// search returns the position of k in keys (found) or its insertion
// point (not found).
func search[K cmp.Ordered](keys []K, k K) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	return i, i < len(keys) && keys[i] == k
}
