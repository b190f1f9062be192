// Transaction tracing (DESIGN.md §7.3): each transaction accumulates
// monotonic per-phase timings while it runs, and at completion the
// worker offers the finished trace to a Tracer — a bounded ring with
// tail-based retention that always keeps the interesting traces
// (slow, aborted, healed, dedup-answered) and lets the
// boring fast commits fall through. The ring is the backing store for
// /debug/trace, the shell's \trace view, and the histogram exemplars.
//
// The recording contract mirrors the flight recorder's: Tracer nil
// costs one pointer check per transaction, and the commit fast path
// (Tracer.Keep) is //thedb:noalloc — the per-transaction scratch
// Trace lives in the Worker and Keep copies it into a preallocated
// slot under a mutex, so tracing never allocates per transaction.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceOutcome classifies how a traced transaction ended.
type TraceOutcome uint8

// Trace outcomes.
const (
	// TraceCommitted: the transaction committed.
	TraceCommitted TraceOutcome = iota
	// TraceAborted: an application (user) abort.
	TraceAborted
	// 2 is retired: /debug/trace encodes the outcome as its number.
	_
	// TraceDedupHit: the server answered the call from its per-session
	// dedup window; the transaction did not run again.
	TraceDedupHit
)

// String names the outcome as it appears in /debug/trace and \trace.
func (o TraceOutcome) String() string {
	switch o {
	case TraceCommitted:
		return "committed"
	case TraceAborted:
		return "aborted"
	case TraceDedupHit:
		return "dedup-hit"
	default:
		return "outcome(?)"
	}
}

// MaxHealPasses bounds the per-trace heal-pass detail. Passes beyond
// the bound still count in NPasses and HealUS; only their per-pass
// rows are dropped (the flight recorder retains them all, correlated
// by trace ID).
const MaxHealPasses = 8

// HealPass is one healing pass inside a traced transaction. Offsets
// are microseconds from the transaction's start on the worker's
// monotonic clock, so StartUS <= EndUS and passes are ordered.
type HealPass struct {
	// StartUS and EndUS are the pass boundaries as microsecond
	// offsets from transaction start.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Restored is the number of operations the pass re-executed.
	Restored uint32 `json:"restored"`
	// Frontier is the validation-frontier index where the pass ran.
	Frontier uint32 `json:"frontier"`
}

// Trace is one transaction's accumulated phase record. It is a plain
// value: workers reuse one as per-transaction scratch and Keep copies
// it into the ring, so the type must stay free of pointers into
// worker state (Proc, a string header, is the only reference and the
// catalog keeps it alive).
type Trace struct {
	// ID is the trace ID: minted by the client, by the server at
	// admission for untraced callers, or by the worker for local runs.
	// Nonzero for every traced transaction.
	ID uint64 `json:"id"`
	// Proc is the stored-procedure name ("" for ad-hoc closures).
	Proc string `json:"proc"`
	// Worker is the engine worker that ran the transaction.
	Worker int32 `json:"worker"`
	// Outcome classifies the ending.
	Outcome TraceOutcome `json:"outcome"`
	// Proto is the protocol rung the final attempt ran under
	// (core.Protocol values: 0=Healing, 1=OCC, 2=Silo, 3=2PL).
	Proto uint8 `json:"proto"`
	// Attempts counts executions, 1 = no restart.
	Attempts uint32 `json:"attempts"`
	// Escalations counts rung changes: 1 when a THEDB-HYBRID
	// transaction hopped from OCC to 2PL, else 0.
	Escalations uint32 `json:"escalations"`
	// Epoch is the global epoch at completion.
	Epoch uint32 `json:"epoch"`
	// StartNS is the wall-clock start (unix nanoseconds): admission
	// time for server calls, first-execution time for local runs.
	StartNS int64 `json:"start_ns"`
	// QueueUS is admission-to-dispatch wait (server calls; 0 local).
	QueueUS int64 `json:"queue_us"`
	// ExecUS is the execute (read) phase, summed over attempts.
	ExecUS int64 `json:"exec_us"`
	// ValidateUS is validation time excluding healing, summed over
	// attempts.
	ValidateUS int64 `json:"validate_us"`
	// HealUS is total healing time across all passes.
	HealUS int64 `json:"heal_us"`
	// CommitUS is the commit apply (write-back + logging), of which
	// WALUS was spent appending to the WAL. Commits never wait for
	// fsync (group commit hardens epochs ~2 behind; DESIGN.md §5.1), so
	// sync waits appear as KEpochSeal/KWALSync recorder events, not as
	// a transaction phase.
	CommitUS int64 `json:"commit_us"`
	// WALUS is the WAL-append portion of CommitUS.
	WALUS int64 `json:"wal_us"`
	// RespUS is the response hand-off to the connection writer
	// (includes outbound backpressure), amended by the server after
	// the trace is kept; 0 for local runs.
	RespUS int64 `json:"resp_us"`
	// TotalUS is dispatch-to-completion on the worker (excludes
	// QueueUS and RespUS).
	TotalUS int64 `json:"total_us"`
	// NPasses counts healing passes; may exceed len(Passes).
	NPasses uint32 `json:"n_passes"`
	// Passes holds the first NPasses (capped) heal passes.
	Passes [MaxHealPasses]HealPass `json:"passes"`
}

// Tracer is the bounded completed-trace ring with tail-based
// retention. One per engine; all workers share it (Keep serializes on
// a mutex, which is off the contended path: most transactions are
// fast clean commits that return after two comparisons).
type Tracer struct {
	slowNS int64 // retention threshold, nanoseconds

	// total counts completed traced transactions. It sits outside the
	// mutex because the overwhelmingly common case — a fast clean
	// commit — must not serialize workers on a shared lock: Keep's
	// boring path is two comparisons and this one atomic add.
	total atomic.Uint64

	mu       sync.Mutex
	ring     []Trace // preallocated; len == cap == capacity
	next     int     // ring cursor
	filled   int     // slots ever written, caps at len(ring)
	kept     uint64  // traces retained (incl. since-overwritten)
	lastSlow Trace   // most recent slow trace (exemplar source)
	haveSlow bool
}

// NewTracer builds a tracer retaining up to capacity traces and
// treating transactions at or above slow as slow (slow <= 0 disables
// the latency criterion; aborted/healed/dedup traces are
// kept regardless).
func NewTracer(capacity int, slow time.Duration) *Tracer {
	if capacity < 8 {
		capacity = 8
	}
	return &Tracer{ring: make([]Trace, capacity), slowNS: slow.Nanoseconds()}
}

// SlowThreshold returns the configured slow cutoff.
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNS) }

// Keep offers a completed trace. Tail-based retention: the trace is
// copied into the ring iff it is interesting — any non-committed
// outcome (abort, dedup-hit), any healing pass, or total
// latency at or past the slow threshold. Returns the ring slot the
// trace landed in, or -1 when it was dropped as boring. The slot plus
// tr.ID lets the server amend RespUS after the response goes out.
//
// Keep is on the commit fast path and must not allocate: the caller
// owns tr (worker scratch), and retention is a struct copy into a
// preallocated slot under the mutex.
//
//thedb:noalloc
func (t *Tracer) Keep(tr *Trace) int {
	slow := t.slowNS > 0 && tr.TotalUS*1000 >= t.slowNS
	interesting := tr.Outcome != TraceCommitted || tr.NPasses > 0 || slow
	t.total.Add(1)
	if !interesting {
		return -1
	}
	t.mu.Lock()
	slot := t.next
	t.ring[slot] = *tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	if t.filled < len(t.ring) {
		t.filled++
	}
	t.kept++
	if slow {
		t.lastSlow = *tr
		t.haveSlow = true
	}
	t.mu.Unlock()
	return slot
}

// AmendResp stamps the response-write duration onto a kept trace,
// identified by the slot Keep returned plus the trace ID (the ID
// guard makes a late amend of an already-overwritten slot a no-op).
func (t *Tracer) AmendResp(slot int, id uint64, respUS int64) {
	if slot < 0 || id == 0 {
		return
	}
	t.mu.Lock()
	if slot < len(t.ring) && t.ring[slot].ID == id {
		t.ring[slot].RespUS = respUS
	}
	if t.haveSlow && t.lastSlow.ID == id {
		t.lastSlow.RespUS = respUS
	}
	t.mu.Unlock()
}

// Snapshot returns the retained traces, newest first. Safe while
// workers keep tracing.
func (t *Tracer) Snapshot() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		// Walk backwards from the most recently written slot.
		idx := t.next - 1 - i
		if idx < 0 {
			idx += len(t.ring)
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// Stats returns (completed traced transactions seen, traces kept).
func (t *Tracer) Stats() (total, kept uint64) {
	t.mu.Lock()
	kept = t.kept
	t.mu.Unlock()
	return t.total.Load(), kept
}

// LastSlow returns the most recent slow trace's ID and total latency
// in microseconds; ok is false until a slow trace has been kept. This
// is the exemplar feed for the latency histogram.
func (t *Tracer) LastSlow() (id uint64, totalUS int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.haveSlow {
		return 0, 0, false
	}
	return t.lastSlow.ID, t.lastSlow.TotalUS, true
}
