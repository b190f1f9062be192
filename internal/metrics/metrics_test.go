package metrics

import (
	"math"
	"testing"
	"time"
)

// workerWith returns a collector whose ladder and outcome counters
// start at c's values.
func workerWith(c Counters) *Worker {
	w := &Worker{}
	w.Committed.Store(c.Committed)
	w.Aborted.Store(c.Aborted)
	w.Restarts.Store(c.Restarts)
	w.Heals.Store(c.Heals)
	w.FalseInval.Store(c.FalseInval)
	w.HealingFallbacks.Store(c.HealingFallbacks)
	w.WatchdogTrips.Store(c.WatchdogTrips)
	return w
}

func TestMergeAndTPS(t *testing.T) {
	w1 := workerWith(Counters{Committed: 100, Restarts: 10, Heals: 5})
	w2 := workerWith(Counters{Committed: 200, Restarts: 20, Aborted: 2, FalseInval: 3})
	a := Merge(2*time.Second, []*Worker{w1, w2})
	if a.Committed != 300 || a.Restarts != 30 || a.Aborted != 2 || a.Heals != 5 || a.FalseInval != 3 {
		t.Fatalf("merged = %+v", a.Counters)
	}
	if a.TPS() != 150 {
		t.Fatalf("tps = %f", a.TPS())
	}
	if a.AbortRate() != 0.1 {
		t.Fatalf("abort rate = %f", a.AbortRate())
	}
	if a.Workers != 2 {
		t.Fatalf("workers = %d", a.Workers)
	}
}

// The escalation and watchdog counters must survive aggregation.
func TestLadderCountersSurviveMerge(t *testing.T) {
	w1 := workerWith(Counters{Committed: 10, HealingFallbacks: 3})
	w2 := workerWith(Counters{Committed: 20, HealingFallbacks: 4, WatchdogTrips: 2})
	a := Merge(time.Second, []*Worker{w1, w2})
	if a.HealingFallbacks != 7 || a.WatchdogTrips != 2 {
		t.Fatalf("ladder counters lost in merge: %+v", a.Counters)
	}
}

func TestZeroDivisionSafety(t *testing.T) {
	a := Merge(0, nil)
	if a.TPS() != 0 || a.AbortRate() != 0 {
		t.Fatal("zero aggregate not safe")
	}
	if a.PhaseFraction(PhaseRead) != 0 {
		t.Fatal("phase fraction of empty aggregate")
	}
}

func TestPhaseAccounting(t *testing.T) {
	w := &Worker{}
	w.AddPhase(PhaseRead, 60*time.Millisecond)
	w.AddPhase(PhaseValidate, 20*time.Millisecond)
	w.AddPhase(PhaseHeal, 10*time.Millisecond)
	w.AddPhase(PhaseWrite, 10*time.Millisecond)
	a := Merge(time.Second, []*Worker{w})
	if f := a.PhaseFraction(PhaseRead); math.Abs(f-0.6) > 1e-9 {
		t.Fatalf("read fraction = %f", f)
	}
	if f := a.PhaseFraction(PhaseAbort); f != 0 {
		t.Fatalf("abort fraction = %f", f)
	}
	if f := a.PhaseFraction(PhaseHeal); math.Abs(f-0.1) > 1e-9 {
		t.Fatalf("heal fraction = %f", f)
	}
}

// TestSnapshotCopiesCountersExcludesSamples: Snapshot must carry
// every counter, phase total and histogram bucket, and Merge must fold
// the snapshot it takes.
func TestSnapshotCopiesCountersExcludesSamples(t *testing.T) {
	w := &Worker{}
	w.Committed.Add(1)
	w.Restarts.Add(5)
	w.AddPhase(PhaseHeal, time.Millisecond)
	w.ObserveLatency(3 * time.Microsecond)
	s := w.Snapshot()
	if s.Committed != 1 || s.Restarts != 5 {
		t.Fatalf("snapshot counters = %+v", s)
	}
	if s.PhaseNS[PhaseHeal] != int64(time.Millisecond) {
		t.Fatalf("snapshot phase = %d", s.PhaseNS[PhaseHeal])
	}
	if s.latency[1] != 1 { // 3µs lands in bucket [2,4)
		t.Fatalf("snapshot histogram = %v", s.latency)
	}
	if s.LatencySumNS != int64(3*time.Microsecond) {
		t.Fatalf("snapshot latency sum = %d", s.LatencySumNS)
	}
	if a := Merge(time.Second, []*Worker{w}); a.Counters != s {
		t.Fatalf("merged = %+v, want the snapshot %+v", a.Counters, s)
	}
}

// TestLatencyBucketEdges pins the doubling histogram's layout: bucket
// i holds [2^i, 2^(i+1)) µs, bucket 0 also everything below 1µs, and
// the last bucket everything from 2^23 µs up.
func TestLatencyBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Nanosecond, 0},
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2*time.Microsecond - time.Nanosecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{(1<<23 - 1) * time.Microsecond, 22},
		{(1 << 23) * time.Microsecond, 23},
		{10 * time.Second, 23},
	}
	for _, c := range cases {
		w := &Worker{}
		w.ObserveLatency(c.d)
		s := w.Snapshot()
		var want [numBuckets]int64
		want[c.want] = 1
		if s.latency != want {
			t.Errorf("ObserveLatency(%v) buckets = %v, want bucket %d", c.d, s.latency, c.want)
		}
		if s.LatencySumNS != int64(c.d) {
			t.Errorf("ObserveLatency(%v) sum = %d", c.d, s.LatencySumNS)
		}
	}
}

func TestPhaseNames(t *testing.T) {
	names := map[Phase]string{
		PhaseRead: "read", PhaseValidate: "validate", PhaseHeal: "heal",
		PhaseWrite: "write", PhaseAbort: "abort",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
