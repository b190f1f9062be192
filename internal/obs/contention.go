// Hot-key contention profiling (DESIGN.md §7.4): a fixed-size
// space-saving top-K sketch fed from the protocol sites that already
// know which record invalidated whom — validation failures and heal
// starts carry (table, key) into the flight recorder, and the same
// pair feeds the sketch. The result names the keys behind the
// degradation story: /debug/contention and the thedb_contention_topk
// metric rank them with per-entry overestimate bounds.
//
// The sketch is Metwally et al.'s space-saving algorithm: K counters
// total. A touch of a tracked key increments it; a touch of an
// untracked key when full evicts the minimum counter and adopts its
// count + 1, recording the evicted count as the new entry's error
// bound. Guarantees: every key with true frequency above N/K is
// tracked, and a tracked entry's true count lies in
// [Count-Err, Count]. K is small (default 32), so the eviction scan
// is a cache-friendly linear pass.
//
// Touch sites sit on failure paths (a validation just failed, a heal
// pass is starting), never on the clean commit fast path, so the
// map lookup and mutex here do not tax uncontended transactions;
// Contention nil costs one pointer check, same as the recorder.
package obs

import (
	"sort"
	"sync"
)

// TouchKind says which protocol site fed the sketch.
type TouchKind uint8

// Touch kinds.
const (
	// TouchValidationFail: the key invalidated a read set.
	TouchValidationFail TouchKind = iota
	// TouchHealStart: a healing pass started at the key.
	TouchHealStart
)

type contKey struct {
	table int
	key   uint64
}

// ContEntry is one ranked hot key in a sketch snapshot.
type ContEntry struct {
	// Table and Key identify the record.
	Table int    `json:"table"`
	Key   uint64 `json:"key"`
	// Count is the space-saving counter: an overestimate of the true
	// touch count by at most Err.
	Count uint64 `json:"count"`
	// Err is the entry's overestimate bound (the evicted minimum the
	// entry inherited when adopted; 0 for entries tracked since the
	// sketch had room).
	Err uint64 `json:"err"`
	// Fails and Heals split the touches observed while tracked:
	// validation failures vs heal starts.
	Fails uint64 `json:"fails"`
	Heals uint64 `json:"heals"`
}

// Contention is the engine-wide hot-key sketch. All workers share it.
type Contention struct {
	mu      sync.Mutex
	k       int
	entries []ContEntry
	index   map[contKey]int // (table,key) -> entries slot
	total   uint64          // touches ever observed
}

// NewContention builds a sketch tracking up to k keys (minimum 8).
func NewContention(k int) *Contention {
	if k < 8 {
		k = 8
	}
	return &Contention{
		k:       k,
		entries: make([]ContEntry, 0, k),
		index:   make(map[contKey]int, k),
	}
}

// K returns the sketch width.
func (c *Contention) K() int { return c.k }

// Touch feeds one contention observation.
func (c *Contention) Touch(table int, key uint64, kind TouchKind) {
	ck := contKey{table, key}
	c.mu.Lock()
	c.total++
	i, ok := c.index[ck]
	if !ok {
		if len(c.entries) < c.k {
			// Room left: track exactly.
			i = len(c.entries)
			c.entries = append(c.entries, ContEntry{Table: table, Key: key})
			c.index[ck] = i
		} else {
			// Full: evict the minimum counter, adopt its count as the
			// new entry's base and error bound.
			i = 0
			for j := 1; j < len(c.entries); j++ {
				if c.entries[j].Count < c.entries[i].Count {
					i = j
				}
			}
			old := c.entries[i]
			delete(c.index, contKey{old.Table, old.Key})
			c.entries[i] = ContEntry{Table: table, Key: key, Count: old.Count, Err: old.Count}
			c.index[ck] = i
		}
	}
	c.entries[i].Count++
	switch kind {
	case TouchValidationFail:
		c.entries[i].Fails++
	case TouchHealStart:
		c.entries[i].Heals++
	}
	c.mu.Unlock()
}

// Snapshot returns the tracked entries ranked by Count descending
// (ties broken by table then key for a deterministic order).
func (c *Contention) Snapshot() []ContEntry {
	c.mu.Lock()
	out := make([]ContEntry, len(c.entries))
	copy(out, c.entries)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Total returns how many touches the sketch has ever observed.
func (c *Contention) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
