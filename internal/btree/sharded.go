package btree

import "sync"

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
// order. Shards that do not exist are skipped.
func (s *Sharded[V]) Walk(lo, hi uint64, fn func(l *Leaf[uint64, V], keys []uint64, vals []V) bool) bool {
	for p := s.prefix(lo); p <= s.prefix(hi); p++ {
		if t := s.shard(p, false); t != nil && !t.Walk(lo, hi, fn) {
			return false
		}
		if p == s.prefix(hi) { // avoid wraparound when prefix(hi) is MaxUint
			break
		}
	}
	return true
}

// Scan visits all pairs with lo <= key <= hi in ascending order and
// returns the leaf observations for phantom validation. Shards that
// do not exist yet contribute no observations; a subsequent insert
// creates keys in a fresh leaf whose version starts above zero only
// after modification, so the caller must also guard creation races at
// a higher level (THEDB does so with dummy records, §4.7.1).
func (s *Sharded[V]) Scan(lo, hi uint64, fn func(k uint64, v V) bool) []ScanRef[uint64, V] {
	var refs []ScanRef[uint64, V]
	s.Walk(lo, hi, observe(&refs, fn))
	return refs
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
