// Package metrics collects the engine's counters: per-phase time
// breakdown (Fig. 19), throughput, abort and restart counts (Fig. 9,
// Tables 2, 6) and a doubling-bucket latency histogram for exposition.
// The paper's per-transaction latency distributions (Tables 1, 3, 5)
// are recorded by the harness, internal/bench, not here.
//
// Each worker owns a private Worker collector; the counter fields are
// updated with atomic adds (no locks, no sharing of cachelines
// between workers) so a snapshot can read them mid-run without
// stopping the worker — see Snapshot. Merge folds workers together.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Phase enumerates where transaction-processing time is spent.
type Phase int

// Phases, matching Fig. 19's breakdown.
const (
	PhaseRead Phase = iota
	PhaseValidate
	PhaseHeal
	PhaseWrite
	PhaseAbort // cleanup + wasted work of aborted attempts
	numPhases
)

// NumPhases is the phase count (exposition iterates all phases).
const NumPhases = int(numPhases)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseRead:
		return "read"
	case PhaseValidate:
		return "validate"
	case PhaseHeal:
		return "heal"
	case PhaseWrite:
		return "write"
	case PhaseAbort:
		return "abort"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// numBuckets covers latencies from 1µs up to ~8.4s in doubling
// buckets, a superset of the paper's table rows.
const numBuckets = 24

// Counters is a plain-field snapshot of one collector's counter
// state. It is the read side of the live/snapshot split: Worker's
// fields are sync/atomic types that can only be read atomically,
// while a Counters value is an ordinary struct — copy it, sum it,
// read it from any goroutine. Worker.Snapshot is the only bridge
// between the two.
type Counters struct {
	Committed  int64
	Aborted    int64 // transactions given up permanently (user abort, deadlock prevention)
	Restarts   int64 // abort-and-restart events (OCC/2PL retries)
	Heals      int64 // healing-phase invocations
	HealedOps  int64 // operations restored by healing
	FalseInval int64 // validation failures dismissed as false invalidations

	// Escalation and watchdog counters (DESIGN.md §4.4, §4.5).
	HealingFallbacks int64 // THEDB-HYBRID's hops from its OCC attempt to 2PL
	BudgetExhausted  int64 // always 0: no transaction is shed; kept only for benchmark/, which reads it
	WatchdogTrips    int64 // stuck-epoch watchdog firings attributed to this worker

	// Snapshot-read counters (DESIGN.md §4.6). SnapshotReads counts
	// committed snapshot transactions (a subset of Committed);
	// VersionsInstalled counts version-chain nodes pushed by the commit
	// path on epoch-boundary crossings.
	SnapshotReads     int64
	VersionsInstalled int64

	// PlanExpansions counts executions of a procedure's Plan. A plan
	// that reads no argument expands once per Spec, so under a steady
	// load of such procedures the counter stands still; one that grows
	// with the transaction count marks a procedure whose dependency
	// graph is rebuilt per transaction (DESIGN.md §3.1).
	PlanExpansions int64

	// LatencySumNS totals committed-transaction latency, pairing with
	// the histogram buckets for exposition (_sum of the Prometheus
	// histogram).
	LatencySumNS int64

	PhaseNS [numPhases]int64

	latency [numBuckets]int64 // committed-transaction latency, bucket i: [2^i, 2^(i+1)) µs
}

// accumulate sums o into c field by field.
func (c *Counters) accumulate(o *Counters) {
	c.Committed += o.Committed
	c.Aborted += o.Aborted
	c.Restarts += o.Restarts
	c.Heals += o.Heals
	c.HealedOps += o.HealedOps
	c.FalseInval += o.FalseInval
	c.HealingFallbacks += o.HealingFallbacks
	c.WatchdogTrips += o.WatchdogTrips
	c.SnapshotReads += o.SnapshotReads
	c.VersionsInstalled += o.VersionsInstalled
	c.PlanExpansions += o.PlanExpansions
	c.LatencySumNS += o.LatencySumNS
	for p := range o.PhaseNS {
		c.PhaseNS[p] += o.PhaseNS[p]
	}
	for b := range o.latency {
		c.latency[b] += o.latency[b]
	}
}

// Worker is a single worker's private metrics collector.
//
// The counter fields are sync/atomic types written by the owning
// worker and read by everyone, including the owner: use Snapshot,
// which returns a plain Counters value. A plain read or write of a
// field does not compile, and `go vet`'s copylocks check flags any
// copy of a Worker.
type Worker struct {
	Committed  atomic.Int64
	Aborted    atomic.Int64 // transactions given up permanently (user abort, deadlock prevention)
	Restarts   atomic.Int64 // abort-and-restart events (OCC/2PL retries)
	Heals      atomic.Int64 // healing-phase invocations
	HealedOps  atomic.Int64 // operations restored by healing
	FalseInval atomic.Int64 // validation failures dismissed as false invalidations

	// Escalation and watchdog counters (DESIGN.md §4.4, §4.5).
	HealingFallbacks atomic.Int64 // THEDB-HYBRID's hops from its OCC attempt to 2PL
	WatchdogTrips    atomic.Int64 // stuck-epoch watchdog firings attributed to this worker

	// Snapshot-read counters (DESIGN.md §4.6).
	SnapshotReads     atomic.Int64
	VersionsInstalled atomic.Int64

	PlanExpansions atomic.Int64 // executions of a procedure's Plan

	// LatencySumNS totals committed-transaction latency, pairing with
	// the histogram buckets for exposition (_sum of the Prometheus
	// histogram).
	LatencySumNS atomic.Int64

	PhaseNS [numPhases]atomic.Int64

	latency [numBuckets]atomic.Int64 // committed-transaction latency, bucket i: [2^i, 2^(i+1)) µs
}

// AddPhase accrues d into the phase's total.
//
//thedb:noalloc
func (w *Worker) AddPhase(p Phase, d time.Duration) {
	w.PhaseNS[p].Add(int64(d))
}

// ObserveLatency records one committed transaction's latency in the
// histogram and the sum: bucket ⌊log2(µs)⌋, clamped to [0, 23].
//
//thedb:noalloc
func (w *Worker) ObserveLatency(d time.Duration) {
	w.LatencySumNS.Add(int64(d))
	b := 0
	if d >= time.Microsecond {
		b = min(bits.Len64(uint64(d/time.Microsecond))-1, numBuckets-1)
	}
	w.latency[b].Add(1)
}

// Snapshot returns an atomically-read copy of the worker's counters,
// safe to take while the worker keeps committing.
func (w *Worker) Snapshot() Counters {
	var s Counters
	s.Committed = w.Committed.Load()
	s.Aborted = w.Aborted.Load()
	s.Restarts = w.Restarts.Load()
	s.Heals = w.Heals.Load()
	s.HealedOps = w.HealedOps.Load()
	s.FalseInval = w.FalseInval.Load()
	s.HealingFallbacks = w.HealingFallbacks.Load()
	s.WatchdogTrips = w.WatchdogTrips.Load()
	s.SnapshotReads = w.SnapshotReads.Load()
	s.VersionsInstalled = w.VersionsInstalled.Load()
	s.PlanExpansions = w.PlanExpansions.Load()
	s.LatencySumNS = w.LatencySumNS.Load()
	for p := range s.PhaseNS {
		s.PhaseNS[p] = w.PhaseNS[p].Load()
	}
	for b := range s.latency {
		s.latency[b] = w.latency[b].Load()
	}
	return s
}

// Aggregate is the merged view over all workers plus the wall-clock
// duration of the run.
type Aggregate struct {
	Counters
	Wall    time.Duration
	Workers int

	// Epoch is the global epoch the engine's snapshot scan read its
	// counters in (zero on a Merge outside the engine).
	Epoch uint32

	// Durability state, filled by the engine (not per-worker; zero
	// when logging is off).
	DurableEpoch    uint32 // highest epoch synced to stable storage on every stream
	DurabilityLost  bool   // a log sync exhausted its retries; recent epochs may not be durable
	LogSyncs        int64  // successful epoch log syncs
	LogSyncFailures int64  // failed sync attempts (includes retried ones)

	// WAL volume (engine-filled, zero when logging is off).
	WALFrames int64 // log frames written across all streams
	WALBytes  int64 // log bytes written across all streams

	// MVCC / snapshot-read state (engine-filled, DESIGN.md §4.6).
	MVCCVersionsReclaimed int64  // version-chain nodes reclaimed by the GC
	MVCCTrackedChains     int    // records currently queued for chain pruning
	SnapshotsPinned       int    // workers currently holding a pinned snapshot
	SnapshotEpochLag      uint32 // epochs the oldest pinned snapshot trails the current epoch
}

// Merge folds per-worker collectors into one aggregate, reading each
// through Snapshot: it is safe while the workers keep committing.
func Merge(wall time.Duration, workers []*Worker) *Aggregate {
	a := &Aggregate{Wall: wall, Workers: len(workers)}
	for _, w := range workers {
		c := w.Snapshot()
		a.Counters.accumulate(&c)
	}
	return a
}

// TPS returns committed transactions per second of wall time.
func (a *Aggregate) TPS() float64 {
	if a.Wall <= 0 {
		return 0
	}
	return float64(a.Committed) / a.Wall.Seconds()
}

// AbortRate returns restarts per committed transaction, the paper's
// abort-rate definition (§5.1 footnote 6).
func (a *Aggregate) AbortRate() float64 {
	if a.Committed == 0 {
		return 0
	}
	return float64(a.Restarts) / float64(a.Committed)
}

// PhaseFraction returns the share of total measured time spent in p.
func (a *Aggregate) PhaseFraction(p Phase) float64 {
	var total int64
	for _, ns := range a.PhaseNS {
		total += ns
	}
	if total == 0 {
		return 0
	}
	return float64(a.PhaseNS[p]) / float64(total)
}

// LatencyBuckets returns the doubling-bucket latency histogram:
// uppers[i] is bucket i's exclusive upper edge in microseconds
// (2^(i+1), +Inf for the last) and counts[i] the committed
// transactions that landed in it. Used by the Prometheus exposition.
func (a *Aggregate) LatencyBuckets() (uppers []float64, counts []int64) {
	uppers = make([]float64, numBuckets)
	counts = make([]int64, numBuckets)
	for i := 0; i < numBuckets; i++ {
		if i == numBuckets-1 {
			uppers[i] = math.Inf(1)
		} else {
			uppers[i] = math.Pow(2, float64(i+1))
		}
		counts[i] = a.latency[i]
	}
	return uppers, counts
}
