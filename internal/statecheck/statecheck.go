// Package statecheck supplies the model side of the crash-recovery
// torture harness: a deterministic sequential workload model whose
// state after any prefix of operations is computable by a trivially
// correct map fold, plus a crashing sink wrapper that kills all WAL
// streams at one byte-budget instant the way a power failure does.
//
// The harness (recovery_torture_test.go at the repo root) runs the
// same operations through the real engine with durability on, crashes
// it at an arbitrary point — mid WAL write, mid checkpoint publish,
// mid truncation — recovers from disk, reads back how many operations
// survived, and diffs the recovered tables against the model's state
// after exactly that prefix. Any partial transaction, lost acked
// commit or resurrected dropped group shows up as a divergence.
package statecheck

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"thedb/internal/storage"
)

// OpKind discriminates model operations.
type OpKind uint8

// Operations: blind put and read-modify-write increment — the two
// shapes whose interleaving detects both lost writes (a missing Put
// leaves a stale value) and partial replay (an Inc applied twice or
// half is arithmetically visible forever after).
const (
	OpPut OpKind = iota
	OpInc
)

// Op is one model operation against an integer key space.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  int64
}

// GenOps derives n operations over keys distinct keys from seed,
// deterministically: the same seed always yields the same workload,
// so a failing torture seed replays exactly.
func GenOps(seed int64, n, keys int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Kind: OpKind(rng.Intn(2)),
			Key:  uint64(rng.Intn(keys)),
			Val:  int64(rng.Intn(100)) - 20,
		}
	}
	return ops
}

// StateAfter folds the first k operations into the reference state:
// exactly what the database must hold if (and only if) operations
// [0, k) committed and nothing else.
func StateAfter(ops []Op, k int) map[uint64]int64 {
	st := make(map[uint64]int64)
	if k > len(ops) {
		k = len(ops)
	}
	for _, op := range ops[:k] {
		switch op.Kind {
		case OpPut:
			st[op.Key] = op.Val
		case OpInc:
			st[op.Key] += op.Val
		}
	}
	return st
}

// VisibleRows renders every visible row of the catalog — table, key,
// commit timestamp, tuple — ordered by table then key. Two databases
// produce the same text exactly when they hold the same visible state,
// so recovery tests compare a recovered database with the live one (or
// with a shadow taken earlier) by comparing this text.
func VisibleRows(cat *storage.Catalog) string {
	var b strings.Builder
	for _, tab := range cat.Tables() {
		type row struct {
			key  storage.Key
			line string
		}
		var rows []row
		tab.ForEach(func(k storage.Key, r *storage.Record) bool {
			if ts, t, visible := r.StableSnapshot(); visible {
				rows = append(rows, row{k, fmt.Sprintf("%s %d @%d %q\n", tab.Schema().Name, k, ts, t)})
			}
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		for _, r := range rows {
			b.WriteString(r.line)
		}
	}
	return b.String()
}

// ErrCrashed is what a tripped sink's Sync returns: the device is
// gone, and no amount of retrying brings it back.
var ErrCrashed = errors.New("statecheck: simulated disk crash")

// Crasher models a whole-machine power failure for a set of log
// sinks: every wrapped stream shares one byte budget, and the moment
// it is exhausted (or TripNow is called) all streams die at once.
//
// Semantics after the trip mirror a dead disk behind a live page
// cache: Write swallows the bytes and reports success — exactly the
// lie the kernel tells about buffered writes that will never reach
// the platter — while Sync fails hard, so the engine's durability
// frontier freezes at what actually hit "disk" and the durability-
// lost latch engages. The write that crosses the budget boundary
// forwards only the bytes that fit, leaving the torn frame a real
// crash leaves.
type Crasher struct {
	mu      sync.Mutex
	budget  int64 // bytes until auto-trip; 0 = only TripNow trips
	tripped bool
}

// NewCrasher builds a crasher that trips after budget bytes across
// all wrapped sinks (budget 0: never auto-trips; use TripNow).
func NewCrasher(budget int64) *Crasher {
	return &Crasher{budget: budget}
}

// TripNow kills the device immediately.
func (c *Crasher) TripNow() {
	c.mu.Lock()
	c.tripped = true
	c.mu.Unlock()
}

// Tripped reports whether the device has died.
func (c *Crasher) Tripped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tripped
}

// Wrap interposes the crasher on one underlying sink (a file).
func (c *Crasher) Wrap(w io.Writer) io.Writer {
	return &crashSink{c: c, w: w}
}

type crashSink struct {
	c *Crasher
	w io.Writer
}

func (s *crashSink) Write(p []byte) (int, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.c.tripped {
		return len(p), nil
	}
	if s.c.budget > 0 {
		if int64(len(p)) >= s.c.budget {
			fit := s.c.budget
			s.c.tripped = true
			s.c.budget = 0
			if _, err := s.w.Write(p[:fit]); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		s.c.budget -= int64(len(p))
	}
	if _, err := s.w.Write(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Sync forwards to the underlying sink until the trip, then fails
// with ErrCrashed forever.
func (s *crashSink) Sync() error {
	s.c.mu.Lock()
	tripped := s.c.tripped
	s.c.mu.Unlock()
	if tripped {
		return ErrCrashed
	}
	if sy, ok := s.w.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}
