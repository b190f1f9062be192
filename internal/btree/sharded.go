package btree

import (
	"slices"
	"sync"
)

// Sharded partitions a uint64-keyed tree by key prefix: all keys
// sharing their top (64-shift) bits live in one sub-tree. Because the
// shards cover contiguous key ranges, ordered scans across shards
// remain ordered. TPC-C packs (warehouse, district) into the key
// prefix, so per-district scans touch exactly one shard and workers
// operating on different districts never contend on index locks.
type Sharded[V any] struct {
	shift  uint
	mu     sync.RWMutex
	shards map[uint64]*Tree[uint64, V]
	// prefixes holds the keys of shards in ascending order, so Walk
	// steps from one shard that exists to the next.
	prefixes []uint64
	// absent is the empty leaf Walk hands out for a prefix with no
	// shard; its version goes up, under mu, whenever a shard is made.
	absent Leaf[uint64, V]
}

// NewSharded returns a sharded tree that groups keys by their top
// (64-shift) bits. shift == 64 degenerates to a single tree.
func NewSharded[V any](shift uint) *Sharded[V] {
	if shift > 64 {
		panic("btree: shard shift out of range")
	}
	return &Sharded[V]{shift: shift, shards: make(map[uint64]*Tree[uint64, V])}
}

func (s *Sharded[V]) prefix(k uint64) uint64 {
	if s.shift == 64 {
		return 0
	}
	return k >> s.shift
}

func (s *Sharded[V]) shard(p uint64, create bool) *Tree[uint64, V] {
	s.mu.RLock()
	t := s.shards[p]
	s.mu.RUnlock()
	if t != nil || !create {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.shards[p]; t == nil {
		t = New[uint64, V]()
		s.shards[p] = t
		i, _ := slices.BinarySearch(s.prefixes, p)
		s.prefixes = slices.Insert(s.prefixes, i, p)
		s.absent.version.Add(1)
	}
	return t
}

// Insert stores v under k, reporting whether a new key was added.
func (s *Sharded[V]) Insert(k uint64, v V) bool {
	return s.shard(s.prefix(k), true).Insert(k, v)
}

// Delete removes k, reporting whether it was present.
func (s *Sharded[V]) Delete(k uint64) bool {
	t := s.shard(s.prefix(k), false)
	return t != nil && t.Delete(k)
}

// DeleteIf removes k only when pred(v) holds for the stored value.
func (s *Sharded[V]) DeleteIf(k uint64, pred func(V) bool) bool {
	t := s.shard(s.prefix(k), false)
	return t != nil && t.DeleteIf(k, pred)
}

// Get returns the value stored under k.
func (s *Sharded[V]) Get(k uint64) (V, bool) {
	t := s.shard(s.prefix(k), false)
	if t == nil {
		var zero V
		return zero, false
	}
	return t.Get(k)
}

// Walk is Tree.Walk across the shards covering [lo, hi], in key
// order, visiting only shards that exist: it costs a lookup per shard
// walked and per run of missing prefixes, never one per prefix. At the
// first prefix in range with no shard, fn gets the absent leaf with no
// keys, under the shard-map read lock of the lookup that found the
// shard missing: a Ref taken there detects the creation of any shard
// after it, so a scan's node set covers leaves that do not exist yet,
// including the shards this walk then steps over. A range whose shards
// all exist never sees it.
func (s *Sharded[V]) Walk(lo, hi uint64, fn func(l *Leaf[uint64, V], keys []uint64, vals []V) bool) bool {
	missed := false
	for p, last := s.prefix(lo), s.prefix(hi); p <= last; p++ {
		s.mu.RLock()
		t, ok := s.shards[p], true
		if t == nil {
			ok = missed || fn(&s.absent, nil, nil)
			missed = true
			if i, _ := slices.BinarySearch(s.prefixes, p); i < len(s.prefixes) && s.prefixes[i] <= last {
				p = s.prefixes[i]
				t = s.shards[p]
			}
		}
		s.mu.RUnlock()
		if !ok || t != nil && !t.Walk(lo, hi, fn) {
			return false
		}
		if t == nil || p == last { // no shard left in range; p == last also avoids wraparound at MaxUint64
			break
		}
	}
	return true
}

// Len returns the total number of keys across shards.
func (s *Sharded[V]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, t := range s.shards {
		n += t.Len()
	}
	return n
}
