// Package metrics collects the measurements the paper reports:
// per-phase time breakdown (Fig. 19), latency histograms with the
// paper's doubling bucket layout (Tables 1, 3, 5), throughput, abort
// and restart counts (Fig. 9, Tables 2, 6).
//
// Each worker owns a private Worker collector; the counter fields are
// updated with atomic adds (no locks, no sharing of cachelines
// between workers) so a live snapshot can read them mid-run without
// stopping the worker — see Snapshot. Aggregate folds workers
// together after a run or at a snapshot instant.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
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
// fields are written with atomic adds and must never be read plainly,
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

	// Degradation-ladder and watchdog counters (DESIGN.md §10).
	HealingFallbacks int64 // escalations to a less optimistic rung (Healing→OCC, OCC→2PL)
	BudgetExhausted  int64 // transactions that ran out of retry budget (ErrContended)
	WatchdogTrips    int64 // stuck-epoch watchdog firings attributed to this worker

	// Snapshot-read counters (DESIGN.md §15). SnapshotReads counts
	// committed snapshot transactions (a subset of Committed);
	// VersionsInstalled counts version-chain nodes pushed by the commit
	// path on epoch-boundary crossings.
	SnapshotReads     int64
	VersionsInstalled int64

	// PlanExpansions counts executions of a procedure's Plan. A plan
	// that reads no argument expands once per Spec, so under a steady
	// load of such procedures the counter stands still; one that grows
	// with the transaction count marks a procedure whose dependency
	// graph is rebuilt per transaction (DESIGN.md §6).
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
	c.BudgetExhausted += o.BudgetExhausted
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
// The int64 counter fields are written with atomic adds by the owning
// worker and read atomically by everyone, including the owner: use
// Snapshot, which returns a plain Counters value. The atomicdisc
// analyzer enforces the split — a plain read or write of any field
// below is a lint error everywhere in the module. The raw percentile
// samples are worker-private until the run ends and are never part of
// a live snapshot.
type Worker struct {
	Committed  int64
	Aborted    int64 // transactions given up permanently (user abort, deadlock prevention)
	Restarts   int64 // abort-and-restart events (OCC/2PL retries)
	Heals      int64 // healing-phase invocations
	HealedOps  int64 // operations restored by healing
	FalseInval int64 // validation failures dismissed as false invalidations

	// Degradation-ladder and watchdog counters (DESIGN.md §10).
	HealingFallbacks int64 // escalations to a less optimistic rung (Healing→OCC, OCC→2PL)
	BudgetExhausted  int64 // transactions that ran out of retry budget (ErrContended)
	WatchdogTrips    int64 // stuck-epoch watchdog firings attributed to this worker

	// Snapshot-read counters (DESIGN.md §15).
	SnapshotReads     int64
	VersionsInstalled int64

	PlanExpansions int64 // executions of a procedure's Plan

	// LatencySumNS totals committed-transaction latency, pairing with
	// the histogram buckets for exposition (_sum of the Prometheus
	// histogram).
	LatencySumNS int64

	PhaseNS [numPhases]int64

	latency [numBuckets]int64 // committed-transaction latency, bucket i: [2^i, 2^(i+1)) µs
	samples []float64         // raw latency samples (µs), capped, for percentiles
}

// maxSamples caps raw percentile samples per worker.
const maxSamples = 1 << 17

// MaxMergedSamples is the documented global bound on raw latency
// samples an Aggregate retains: Merge reservoir-downsamples past it,
// so many-worker runs never hold unbounded float64 slices (each
// worker alone may contribute up to maxSamples = 1<<17).
const MaxMergedSamples = 1 << 18

// Inc atomically adds 1 to a counter field of this collector; Add
// adds n. Callers pass a pointer to one of the exported int64 fields
// (e.g. w.Inc(&w.Committed)).
//
//thedb:noalloc
func (w *Worker) Inc(field *int64) { atomic.AddInt64(field, 1) }

// Add atomically adds n to a counter field of this collector.
//
//thedb:noalloc
func (w *Worker) Add(field *int64, n int64) { atomic.AddInt64(field, n) }

// AddPhase accrues d into the phase's total.
//
//thedb:noalloc
func (w *Worker) AddPhase(p Phase, d time.Duration) {
	atomic.AddInt64(&w.PhaseNS[p], int64(d))
}

// ObserveLatency records one committed transaction's latency.
func (w *Worker) ObserveLatency(d time.Duration) {
	atomic.AddInt64(&w.LatencySumNS, int64(d))
	us := float64(d) / float64(time.Microsecond)
	b := 0
	if us >= 1 {
		b = int(math.Log2(us))
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	atomic.AddInt64(&w.latency[b], 1)
	if len(w.samples) < maxSamples {
		w.samples = append(w.samples, us)
	}
}

// Snapshot returns an atomically-read copy of the worker's counters,
// safe to take while the worker keeps committing. The raw percentile
// samples are deliberately excluded (they are append-only
// worker-private state, merged only after a run); histogram buckets,
// phase times and all counters are included.
func (w *Worker) Snapshot() Counters {
	var s Counters
	s.Committed = atomic.LoadInt64(&w.Committed)
	s.Aborted = atomic.LoadInt64(&w.Aborted)
	s.Restarts = atomic.LoadInt64(&w.Restarts)
	s.Heals = atomic.LoadInt64(&w.Heals)
	s.HealedOps = atomic.LoadInt64(&w.HealedOps)
	s.FalseInval = atomic.LoadInt64(&w.FalseInval)
	s.HealingFallbacks = atomic.LoadInt64(&w.HealingFallbacks)
	s.BudgetExhausted = atomic.LoadInt64(&w.BudgetExhausted)
	s.WatchdogTrips = atomic.LoadInt64(&w.WatchdogTrips)
	s.SnapshotReads = atomic.LoadInt64(&w.SnapshotReads)
	s.VersionsInstalled = atomic.LoadInt64(&w.VersionsInstalled)
	s.PlanExpansions = atomic.LoadInt64(&w.PlanExpansions)
	s.LatencySumNS = atomic.LoadInt64(&w.LatencySumNS)
	for p := range s.PhaseNS {
		s.PhaseNS[p] = atomic.LoadInt64(&w.PhaseNS[p])
	}
	for b := range s.latency {
		s.latency[b] = atomic.LoadInt64(&w.latency[b])
	}
	return s
}

// Aggregate is the merged view over all workers plus the wall-clock
// duration of the run.
type Aggregate struct {
	Counters
	Wall    time.Duration
	Workers int

	samples []float64 // merged raw latency samples (µs), bounded by MaxMergedSamples

	// Epoch is the global epoch at snapshot time (live snapshots
	// only; zero on post-run merges).
	Epoch uint32

	// Durability state, filled by the engine (not per-worker; zero
	// when logging is off or on the deterministic engine).
	DurableEpoch    uint32 // highest epoch synced to stable storage on every stream
	DurabilityLost  bool   // a log sync exhausted its retries; recent epochs may not be durable
	LogSyncs        int64  // successful epoch log syncs
	LogSyncFailures int64  // failed sync attempts (includes retried ones)

	// WAL volume (engine-filled, zero when logging is off).
	WALFrames int64 // log frames written across all streams
	WALBytes  int64 // log bytes written across all streams

	// MVCC / snapshot-read state (engine-filled, DESIGN.md §15).
	MVCCVersionsReclaimed int64  // version-chain nodes reclaimed by the GC
	MVCCTrackedChains     int    // records currently queued for chain pruning
	SnapshotsPinned       int    // workers currently holding a pinned snapshot
	SnapshotEpochLag      uint32 // epochs the oldest pinned snapshot trails the current epoch
}

// Merge folds per-worker collectors into one aggregate. The
// concatenated raw-sample set is bounded by MaxMergedSamples via
// deterministic reservoir downsampling (algorithm R with a fixed-seed
// splitmix64 stream), so percentiles stay representative of the whole
// population without the aggregate holding every sample.
func Merge(wall time.Duration, workers []*Worker) *Aggregate {
	a := &Aggregate{Wall: wall, Workers: len(workers)}
	rng := uint64(0x9e3779b97f4a7c15) // fixed seed: merges are reproducible
	seen := 0
	for _, w := range workers {
		c := w.Snapshot()
		a.Counters.accumulate(&c)
		for _, s := range w.samples {
			if len(a.samples) < MaxMergedSamples {
				a.samples = append(a.samples, s)
			} else {
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				z ^= z >> 31
				if j := z % uint64(seen+1); j < MaxMergedSamples {
					a.samples[j] = s
				}
			}
			seen++
		}
	}
	return a
}

// MergeSnapshots folds already-taken Counters snapshots into an
// aggregate — the live-snapshot path, where the caller reads each
// worker under its own consistency protocol (epoch-stable scans) and
// no raw samples exist.
func MergeSnapshots(wall time.Duration, snaps []Counters) *Aggregate {
	a := &Aggregate{Wall: wall, Workers: len(snaps)}
	for i := range snaps {
		a.Counters.accumulate(&snaps[i])
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

// PermanentAbortRate returns permanently aborted transactions per
// committed transaction (deadlock prevention, Table 6).
func (a *Aggregate) PermanentAbortRate() float64 {
	if a.Committed == 0 {
		return 0
	}
	return float64(a.Aborted) / float64(a.Committed)
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

// LatencyShare returns the fraction of committed transactions whose
// latency fell in [lo, hi) microseconds, computed from the raw
// samples (paper Tables 1 and 5 use irregular bucket edges).
func (a *Aggregate) LatencyShare(loUS, hiUS float64) float64 {
	if len(a.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range a.samples {
		if s >= loUS && s < hiUS {
			n++
		}
	}
	return float64(n) / float64(len(a.samples))
}

// Percentile returns the p-th latency percentile in microseconds
// (p in [0, 100]), linearly interpolating between adjacent order
// statistics: rank = p/100·(n−1), value = s[⌊rank⌋] weighted toward
// s[⌊rank⌋+1] by the fractional part. A truncating index would
// under-report high percentiles on small sample sets (p99 of 10
// samples must sit between the two largest, not on the second
// largest).
func (a *Aggregate) Percentile(p float64) float64 {
	if len(a.samples) == 0 {
		return 0
	}
	s := make([]float64, len(a.samples))
	copy(s, a.samples)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Samples returns the number of raw latency samples retained.
func (a *Aggregate) Samples() int { return len(a.samples) }

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

// BreakdownString renders the phase breakdown as percentages,
// followed by the degradation-ladder counters when any are nonzero.
func (a *Aggregate) BreakdownString() string {
	var parts []string
	for p := Phase(0); p < numPhases; p++ {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", p, 100*a.PhaseFraction(p)))
	}
	if a.HealingFallbacks != 0 || a.BudgetExhausted != 0 || a.WatchdogTrips != 0 {
		parts = append(parts,
			fmt.Sprintf("fallbacks=%d", a.HealingFallbacks),
			fmt.Sprintf("budget_exhausted=%d", a.BudgetExhausted),
			fmt.Sprintf("watchdog_trips=%d", a.WatchdogTrips))
	}
	return strings.Join(parts, " ")
}
