package metrics

import (
	"math"
	"strings"
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
	w.BudgetExhausted.Store(c.BudgetExhausted)
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
	if math.Abs(a.PermanentAbortRate()-2.0/300) > 1e-12 {
		t.Fatalf("permanent abort rate = %f", a.PermanentAbortRate())
	}
	if a.Workers != 2 {
		t.Fatalf("workers = %d", a.Workers)
	}
}

// The degradation-ladder counters must survive aggregation and show
// up in the breakdown only when nonzero.
func TestLadderCountersSurviveMerge(t *testing.T) {
	w1 := workerWith(Counters{Committed: 10, HealingFallbacks: 3, BudgetExhausted: 1})
	w2 := workerWith(Counters{Committed: 20, HealingFallbacks: 4, WatchdogTrips: 2})
	a := Merge(time.Second, []*Worker{w1, w2})
	if a.HealingFallbacks != 7 || a.BudgetExhausted != 1 || a.WatchdogTrips != 2 {
		t.Fatalf("ladder counters lost in merge: %+v", a.Counters)
	}
	s := a.BreakdownString()
	for _, want := range []string{"fallbacks=7", "budget_exhausted=1", "watchdog_trips=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("breakdown %q missing %q", s, want)
		}
	}
	quiet := Merge(time.Second, []*Worker{workerWith(Counters{Committed: 5})})
	if s := quiet.BreakdownString(); strings.Contains(s, "fallbacks") {
		t.Fatalf("breakdown shows ladder counters on a quiet run: %q", s)
	}
}

func TestZeroDivisionSafety(t *testing.T) {
	a := Merge(0, nil)
	if a.TPS() != 0 || a.AbortRate() != 0 || a.PermanentAbortRate() != 0 {
		t.Fatal("zero aggregate not safe")
	}
	if a.PhaseFraction(PhaseRead) != 0 {
		t.Fatal("phase fraction of empty aggregate")
	}
	if a.Percentile(95) != 0 || a.LatencyShare(0, 100) != 0 {
		t.Fatal("latency stats of empty aggregate")
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
	s := a.BreakdownString()
	if !strings.Contains(s, "read=60.0%") || !strings.Contains(s, "heal=10.0%") {
		t.Fatalf("breakdown = %q", s)
	}
}

func TestLatencyPercentilesAndShares(t *testing.T) {
	w := &Worker{}
	for i := 1; i <= 100; i++ {
		w.ObserveLatency(time.Duration(i) * time.Microsecond)
	}
	a := Merge(time.Second, []*Worker{w})
	if a.Samples() != 100 {
		t.Fatalf("samples = %d", a.Samples())
	}
	if p := a.Percentile(50); p < 45 || p > 55 {
		t.Fatalf("p50 = %f", p)
	}
	if p := a.Percentile(100); p != 100 {
		t.Fatalf("p100 = %f", p)
	}
	if s := a.LatencyShare(1, 51); math.Abs(s-0.5) > 0.02 {
		t.Fatalf("share [1,51) = %f", s)
	}
	if s := a.LatencyShare(1000, 2000); s != 0 {
		t.Fatalf("share of empty range = %f", s)
	}
}

// TestPercentileInterpolation pins the linear-interpolation contract
// on a known distribution: ten samples 10,20,...,100µs. rank =
// p/100·(n−1), interpolating between adjacent order statistics — a
// truncating index would report p50=50 and p99=90 here.
func TestPercentileInterpolation(t *testing.T) {
	w := &Worker{}
	for i := 1; i <= 10; i++ {
		w.ObserveLatency(time.Duration(10*i) * time.Microsecond)
	}
	a := Merge(time.Second, []*Worker{w})
	cases := []struct{ p, want float64 }{
		{0, 10},    // floor clamp
		{100, 100}, // ceiling clamp
		{50, 55},   // rank 4.5: halfway between 50 and 60
		{25, 32.5}, // rank 2.25
		{99, 99.1}, // rank 8.91: between the two largest
		{90, 91},   // rank 8.1
	}
	for _, c := range cases {
		if got := a.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestMergeCapsSamples: concatenating more than MaxMergedSamples raw
// samples must reservoir-downsample to exactly the cap, keep the
// result deterministic across merges, and retain samples from every
// contributing worker (representativeness, not truncation).
func TestMergeCapsSamples(t *testing.T) {
	mkWorker := func(v float64) *Worker {
		w := &Worker{}
		w.samples = make([]float64, maxSamples)
		for i := range w.samples {
			w.samples[i] = v
		}
		return w
	}
	workers := []*Worker{mkWorker(1), mkWorker(2), mkWorker(3)}
	a := Merge(time.Second, workers)
	if a.Samples() != MaxMergedSamples {
		t.Fatalf("merged samples = %d, want cap %d", a.Samples(), MaxMergedSamples)
	}
	counts := map[float64]int{}
	for _, s := range a.samples {
		counts[s]++
	}
	for v := 1.0; v <= 3; v++ {
		if counts[v] == 0 {
			t.Errorf("reservoir lost every sample of worker %g — truncation, not downsampling", v)
		}
	}
	// A tail-truncating cap would keep zero samples from the last
	// worker's overflow; algorithm R keeps roughly its fair share.
	if frac := float64(counts[3]) / float64(a.Samples()); frac < 0.15 {
		t.Errorf("last worker's share = %.3f, want ≈ 1/3", frac)
	}
	b := Merge(time.Second, workers)
	for i := range a.samples {
		if a.samples[i] != b.samples[i] {
			t.Fatalf("merge is nondeterministic at sample %d: %g vs %g", i, a.samples[i], b.samples[i])
		}
	}
}

// TestSnapshotCopiesCountersExcludesSamples: Snapshot must carry
// every counter, phase total and histogram bucket, but never the
// worker-private raw sample slice.
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
	// Counters carries no sample slice by construction; merging one
	// snapshot must leave the aggregate without raw samples either.
	if MergeSnapshots(time.Second, []Counters{s}).Samples() != 0 {
		t.Fatal("snapshot must not carry raw samples into an aggregate")
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
