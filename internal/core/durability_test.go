package core

import (
	"errors"
	"io"
	"testing"
	"time"

	"thedb/internal/fault"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// durableEngine builds a one-worker engine logging to a fault.Writer.
func durableEngine() (*Engine, *fault.Writer) {
	sink := fault.NewWriter(io.Discard)
	logger := wal.NewLogger(wal.ValueLogging, 1, func(int) io.Writer { return sink })
	e := NewEngine(storage.NewCatalog(), Options{Workers: 1, Logger: logger})
	return e, sink
}

// failures returns n copies of err, a script for fault.Writer.ScriptSync.
func failures(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

func TestSyncToStableRetriesTransientErrors(t *testing.T) {
	e, sink := durableEngine()
	sink.ScriptSync(failures(syncRetries, errors.New("transient"))...)

	e.syncToStable(5) // hardens epoch 5-2 = 3 on the last retry

	if got := e.DurableEpoch(); got != 3 {
		t.Fatalf("durable epoch = %d, want 3", got)
	}
	if e.DurabilityLost() {
		t.Fatal("transient failures must not latch durability-lost")
	}
	m := e.Metrics(time.Second)
	if m.DurableEpoch != 3 || m.DurabilityLost || m.LogSyncs != 1 || m.LogSyncFailures != syncRetries {
		t.Fatalf("metrics = durable=%d lost=%v syncs=%d fails=%d, want 3/false/1/%d",
			m.DurableEpoch, m.DurabilityLost, m.LogSyncs, m.LogSyncFailures, syncRetries)
	}
	if sink.SyncCalls() != syncRetries+1 {
		t.Fatalf("sync calls = %d, want %d (%d failures + one success)",
			sink.SyncCalls(), syncRetries+1, syncRetries)
	}
}

func TestSyncToStableDegradesOnPermanentFailure(t *testing.T) {
	e, sink := durableEngine()
	// One failure more than the retries: the first attempt and every
	// retry fail.
	sink.ScriptSync(failures(syncRetries+1, errors.New("device detached"))...)

	e.syncToStable(5) // must give up after syncRetries, not spin

	if e.DurableEpoch() != 0 {
		t.Fatalf("durable epoch advanced to %d despite failed syncs", e.DurableEpoch())
	}
	if !e.DurabilityLost() {
		t.Fatal("exhausted retries must latch durability-lost")
	}
	m := e.Metrics(time.Second)
	if !m.DurabilityLost || m.LogSyncs != 0 || m.LogSyncFailures != syncRetries+1 {
		t.Fatalf("metrics = lost=%v syncs=%d fails=%d, want lost with 0/%d",
			m.DurabilityLost, m.LogSyncs, m.LogSyncFailures, syncRetries+1)
	}
	if sink.SyncCalls() != syncRetries+1 {
		t.Fatalf("sync calls = %d, want %d", sink.SyncCalls(), syncRetries+1)
	}

	// Degradation is graceful: the next advance tries again, and a
	// healed sink resumes hardening (the lost flag stays latched —
	// epochs from the outage window were never made durable).
	e.syncToStable(6) // script drained: the sink syncs cleanly again
	if e.DurableEpoch() != 4 {
		t.Fatalf("durable epoch = %d after sink healed, want 4", e.DurableEpoch())
	}
	if !e.DurabilityLost() {
		t.Fatal("durability-lost must stay latched across recovery of the sink")
	}
}

// A stopping engine does not wait out the sync backoff: the advancer
// gives up at once, and Stop's final close makes the last attempt and
// latches durability-lost if that fails too.
func TestSyncToStableStopsRetryingOnStop(t *testing.T) {
	e, sink := durableEngine()
	sink.ScriptSync(failures(syncRetries+1, errors.New("device detached"))...)
	e.stopOnce.Do(func() { close(e.stopC) })

	e.syncToStable(5)
	if sink.SyncCalls() != 1 || e.DurableEpoch() != 0 || e.DurabilityLost() {
		t.Fatalf("after stop: sync calls = %d durable = %d lost = %v, want 1/0/false",
			sink.SyncCalls(), e.DurableEpoch(), e.DurabilityLost())
	}
	if err := e.Stop(); err == nil || !e.DurabilityLost() {
		t.Fatalf("Stop() = %v lost = %v, want the close failure latched", err, e.DurabilityLost())
	}
}

func TestSyncToStableSkipsEarlyEpochs(t *testing.T) {
	e, sink := durableEngine()
	e.syncToStable(2) // cur-2 = 0: nothing to harden yet
	if sink.SyncCalls() != 0 || e.DurableEpoch() != 0 {
		t.Fatalf("sync calls = %d durable = %d, want 0/0", sink.SyncCalls(), e.DurableEpoch())
	}
}

func TestStopSurfacesCloseFailure(t *testing.T) {
	e, sink := durableEngine()
	boom := errors.New("final flush failed")
	// Arm a write error so Close's flush of the sealed stream fails.
	wl := e.Options().Logger.Worker(0)
	ts := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts)
	_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(1)})
	_ = wl.EndCommit(ts)
	sink.FailAt(boom)

	if err := e.Stop(); !errors.Is(err, boom) {
		t.Fatalf("Stop() = %v, want the close failure", err)
	}
	if !e.DurabilityLost() {
		t.Fatal("failed close must latch durability-lost")
	}
}
