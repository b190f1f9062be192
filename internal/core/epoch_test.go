package core

import (
	"sync"
	"testing"
	"time"
)

// TestEpochManagerConcurrentLifecycle hammers Start/Stop/Advance/
// Current from many goroutines (run under -race): the lifecycle must
// not race with itself or with epoch readers, and the manager must be
// stopped cleanly at the end no matter how the calls interleaved.
func TestEpochManagerConcurrentLifecycle(t *testing.T) {
	m := NewEpochManager(100 * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Start(nil)
				m.Advance()
				_ = m.Current()
				m.Stop()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = m.Current()
				m.Advance()
			}
		}()
	}
	wg.Wait()
	m.Stop()
	if cur := m.Current(); cur < 1000 {
		t.Fatalf("epoch advanced only to %d", cur)
	}
}

// TestEpochManagerDoubleStop: extra Stops — before Start, repeated,
// and after a restart cycle — are all no-ops.
func TestEpochManagerDoubleStop(t *testing.T) {
	m := NewEpochManager(time.Millisecond)
	m.Stop() // never started
	m.Start(nil)
	m.Stop()
	m.Stop()
	m.Stop()
	m.Start(nil) // restart after stop must still work
	before := m.Current()
	time.Sleep(10 * time.Millisecond)
	if m.Current() == before {
		t.Fatal("restarted advancer is not advancing")
	}
	m.Stop()
	m.Stop()
}

// TestEpochManagerStartWhileRunning: a second Start is a no-op and
// must not leak a second advancer (the epoch advances at roughly one
// rate, and one Stop is enough to halt it).
func TestEpochManagerStartWhileRunning(t *testing.T) {
	m := NewEpochManager(time.Millisecond)
	m.Start(nil)
	m.Start(nil)
	m.Start(nil)
	m.Stop()
	stopped := m.Current()
	time.Sleep(5 * time.Millisecond)
	if m.Current() != stopped {
		t.Fatal("epoch still advancing after Stop; a duplicate advancer leaked")
	}
}

// TestWatchdogDeterministic drives the watchdog by hand — a manual
// manager with an unreachable tick interval, explicit Refresh/Idle
// and Advance calls — so the trip, latch, re-arm and suppression
// semantics are checked without any timing dependence.
func TestWatchdogDeterministic(t *testing.T) {
	m := NewEpochManager(time.Hour)
	m.Watch(2)

	// Worker 0 registers at epoch 1 and stalls; worker 1 stays idle.
	m.Refresh(0)
	for i := 0; i < watchdogLag; i++ { // epochs 2..lag+1: within the lag
		m.Advance()
	}
	if got := m.Trips(0); got != 0 {
		t.Fatalf("tripped after %d epochs, within lag: trips=%d", watchdogLag, got)
	}
	m.Advance() // lag+1 epochs behind: must trip
	if got := m.Trips(0); got != 1 {
		t.Fatalf("trips(0) = %d, want 1", got)
	}
	if got := m.Trips(1); got != 0 {
		t.Fatalf("idle worker tripped: trips(1) = %d", got)
	}

	// The trip is latched: further advances don't re-count.
	for i := 0; i < 2*watchdogLag; i++ {
		m.Advance()
	}
	if got := m.Trips(0); got != 1 {
		t.Fatalf("latched trip re-fired: trips(0) = %d", got)
	}

	// Refresh re-arms: a second stall trips a second time.
	m.Refresh(0)
	for i := 0; i < watchdogLag+2; i++ {
		m.Advance()
	}
	if got := m.Trips(0); got != 2 {
		t.Fatalf("re-armed watchdog did not trip: trips(0) = %d", got)
	}

	// Idle suppresses: a deregistered worker never trips.
	m.Refresh(0)
	m.Idle(0)
	for i := 0; i < 2*watchdogLag; i++ {
		m.Advance()
	}
	if got := m.Trips(0); got != 2 {
		t.Fatalf("idle worker tripped: trips(0) = %d", got)
	}

	// A worker that keeps refreshing never trips.
	for i := 0; i < 2*watchdogLag; i++ {
		m.Refresh(1)
		m.Advance()
	}
	if got := m.Trips(1); got != 0 {
		t.Fatalf("refreshing worker tripped: trips(1) = %d", got)
	}
}

// TestWatchdogOutOfRangeAndUnarmed: watchdog calls on an unarmed
// manager or with out-of-range worker ids are harmless no-ops.
func TestWatchdogOutOfRangeAndUnarmed(t *testing.T) {
	m := NewEpochManager(time.Hour)
	m.Refresh(0) // unarmed: no Watch call
	m.Idle(0)
	m.Advance()
	if got := m.Trips(0); got != 0 {
		t.Fatalf("unarmed manager reported trips: %d", got)
	}
	m.Watch(1)
	m.Refresh(-1)
	m.Refresh(7)
	m.Idle(-1)
	m.Idle(7)
	if got := m.Trips(-1) + m.Trips(7); got != 0 {
		t.Fatalf("out-of-range ids reported trips: %d", got)
	}
}
