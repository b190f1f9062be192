// Package hashidx provides a sharded hash map keyed by uint64,
// THEDB's primary point-access index. Shards are protected by
// read/write mutexes so point lookups from concurrent workers contend
// only when they hash to the same shard, standing in for the paper's
// Masstree for point access (see DESIGN.md §1.1).
package hashidx

import "sync"

const numShards = 128

// Map is a concurrency-safe hash index from uint64 keys to values of
// type V. The zero Map is not usable; construct with New.
type Map[V any] struct {
	shards [numShards]shard[V]
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

// New returns an empty index.
func New[V any]() *Map[V] {
	idx := &Map[V]{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[uint64]V)
	}
	return idx
}

// fib mixes the key bits so that structured keys (packed composites)
// spread across shards.
func fib(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> 32 }

func (idx *Map[V]) shardFor(k uint64) *shard[V] {
	return &idx.shards[fib(k)%numShards]
}

// Get returns the value stored under k.
func (idx *Map[V]) Get(k uint64) (V, bool) {
	s := idx.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Store unconditionally maps k to v, and reports whether k was new.
func (idx *Map[V]) Store(k uint64, v V) (fresh bool) {
	s := idx.shardFor(k)
	s.mu.Lock()
	n := len(s.m)
	s.m[k] = v
	fresh = len(s.m) > n
	s.mu.Unlock()
	return fresh
}

// LoadOrStore returns the existing value for k if present. Otherwise
// it calls mk once under the shard lock, stores the result, and
// returns it with loaded=false. The constructor runs at most once
// per miss, which the insert protocol of §4.7.1 relies on to create
// exactly one dummy record per key.
func (idx *Map[V]) LoadOrStore(k uint64, mk func() V) (v V, loaded bool) {
	s := idx.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		return v, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok = s.m[k]; ok {
		return v, true
	}
	v = mk()
	s.m[k] = v
	return v, false
}

// GetWith looks up k and, if present, calls fn(v) while still
// holding the shard read lock. THEDB uses this to pin a record's
// reference counter atomically with the lookup, closing the race
// between a reader acquiring a record and the garbage collector
// unlinking it (§4.7.1).
func (idx *Map[V]) GetWith(k uint64, fn func(V)) (V, bool) {
	s := idx.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	if ok && fn != nil {
		fn(v)
	}
	s.mu.RUnlock()
	return v, ok
}

// LoadOrStoreWith is LoadOrStore with an additional callback invoked
// on the resulting value while the shard lock is held (read lock on
// the fast path, write lock on the slow path).
func (idx *Map[V]) LoadOrStoreWith(k uint64, mk func() V, fn func(V)) (v V, loaded bool) {
	s := idx.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	if ok {
		if fn != nil {
			fn(v)
		}
		s.mu.RUnlock()
		return v, true
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok = s.m[k]; ok {
		if fn != nil {
			fn(v)
		}
		return v, true
	}
	v = mk()
	s.m[k] = v
	if fn != nil {
		fn(v)
	}
	return v, false
}

// DeleteIf removes k only if pred(v) holds for the stored value,
// evaluated under the shard write lock. It returns whether a removal
// happened. The garbage collector uses this to reclaim a deleted
// record only while no transaction pins it.
func (idx *Map[V]) DeleteIf(k uint64, pred func(V) bool) bool {
	s := idx.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	if !ok || !pred(v) {
		return false
	}
	delete(s.m, k)
	return true
}

// Delete removes k.
func (idx *Map[V]) Delete(k uint64) {
	s := idx.shardFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of stored keys. It is O(shards) and intended
// for tests and reporting, not hot paths.
func (idx *Map[V]) Len() int {
	n := 0
	for i := range idx.shards {
		s := &idx.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every key/value pair until fn returns false.
// The iteration order is unspecified. fn must not call back into the
// same shard.
func (idx *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i := range idx.shards {
		s := &idx.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
