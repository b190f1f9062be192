package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/fault"
	"thedb/internal/obs"
	"thedb/internal/storage"
)

// EpochManager advances the global epoch number that forms the high
// half of every commit timestamp (§4.3). A designated goroutine bumps
// the epoch periodically; transactions committed within one epoch are
// group-committed together by the logging layer.
//
// The manager doubles as the stuck-epoch watchdog: workers register
// their current epoch at each transaction attempt (Refresh) and
// deregister between transactions (Idle); each advance checks for a
// worker whose registration has fallen more than watchdogLag epochs
// behind and latches a trip for it. A tripped worker cannot advance
// the durability frontier or drain healing work, so surfacing it
// beats silently stalling group commit.
type EpochManager struct {
	cur      atomic.Uint32
	interval time.Duration

	mu   sync.Mutex // guards stop/done lifecycle
	stop chan struct{}
	done chan struct{}

	// chaos, when non-nil, is consulted around each advance.
	chaos *fault.Schedule

	// rec, when non-nil, receives epoch-advance and watchdog-trip
	// events on the advancer's flight-recorder ring.
	rec *obs.Recorder

	// Watchdog state, armed by Watch. wd[i] packs a worker's
	// registration into one word: bit 63 = executing a transaction,
	// bit 62 = trip latched, low 32 bits = epoch at last Refresh.
	wd    []atomic.Uint64
	trips []atomic.Int64
}

const (
	wdActive  = uint64(1) << 63
	wdTripped = uint64(1) << 62
)

// NewEpochManager builds a manager that advances every interval.
func NewEpochManager(interval time.Duration) *EpochManager {
	m := &EpochManager{interval: interval}
	m.cur.Store(1) // epoch 0 is reserved for load-time records
	return m
}

// Current returns the global epoch.
func (m *EpochManager) Current() uint32 { return m.cur.Load() }

// SeedTo fast-forwards the epoch to at least epoch (never backwards).
// Recovery uses it before serving resumes: the epoch counter restarts
// at 1 in every process, but recovered records carry timestamps from
// earlier generations, and a commit touching one would inherit an
// epoch far above the advancer's counter — its group would then sit
// above every seal the advancer writes and be dropped by any salvage.
// Seeding past the recovered maximum keeps commit epochs and seal
// epochs in the same regime across restarts.
func (m *EpochManager) SeedTo(epoch uint32) {
	for {
		cur := m.cur.Load()
		if epoch <= cur || m.cur.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Advance bumps the epoch once (the advancer goroutine, tests, manual
// control) and runs the stall check against the new epoch.
func (m *EpochManager) Advance() uint32 {
	e := m.cur.Add(1)
	if m.rec != nil {
		m.rec.Record(obs.EpochActor, obs.KEpochAdvance, e, uint64(e), 0)
	}
	m.checkStalls(e)
	return e
}

// Watch arms worker epoch registration and the stuck-epoch watchdog:
// a worker that stays registered (Refresh without a matching Idle) for
// more than watchdogLag epochs trips once, counted per worker. The
// registration table also feeds VisibleFloor, which snapshot reads
// depend on, so the engine always arms it. Call before any worker
// runs.
func (m *EpochManager) Watch(workers int) {
	if workers <= 0 {
		return
	}
	m.wd = make([]atomic.Uint64, workers)
	m.trips = make([]atomic.Int64, workers)
}

// Refresh registers the worker as executing in the current epoch and
// clears any previous trip latch. Workers call it at the start of
// every transaction attempt.
func (m *EpochManager) Refresh(worker int) {
	if m.wd == nil || worker < 0 || worker >= len(m.wd) {
		return
	}
	m.wd[worker].Store(wdActive | uint64(m.cur.Load()))
}

// Idle deregisters the worker (no transaction in flight), suppressing
// the watchdog until the next Refresh.
func (m *EpochManager) Idle(worker int) {
	if m.wd == nil || worker < 0 || worker >= len(m.wd) {
		return
	}
	m.wd[worker].Store(0)
}

// VisibleFloor returns the lowest epoch any currently registered
// worker was in at its last Refresh, or the current epoch when no
// worker is mid-transaction. Every in-flight and future commit is
// stamped with at least the floor's epoch: a worker's commit reads the
// epoch after its Refresh stored the registration, so a registration
// the scan observes bounds that worker's commits from below, and a
// registration the scan misses belongs to a commit whose epoch read
// happened after the scan (hence at least the scan's current epoch).
// Snapshot reads build their timestamps from this floor (DESIGN.md
// §4.6).
func (m *EpochManager) VisibleFloor() uint32 {
	floor := m.cur.Load()
	for i := range m.wd {
		v := m.wd[i].Load()
		if v&wdActive == 0 {
			continue
		}
		if e := uint32(v); e < floor {
			floor = e
		}
	}
	return floor
}

// Trips returns how often the watchdog has fired for the worker.
func (m *EpochManager) Trips(worker int) int64 {
	if m.trips == nil || worker < 0 || worker >= len(m.trips) {
		return 0
	}
	return m.trips[worker].Load()
}

// checkStalls trips the watchdog for every registered worker whose
// last refresh is more than watchdogLag epochs behind cur. The trip is
// latched per registration: one firing per stall, re-armed by the
// next Refresh.
func (m *EpochManager) checkStalls(cur uint32) {
	if m.wd == nil {
		return
	}
	for i := range m.wd {
		v := m.wd[i].Load()
		if v&wdActive == 0 || v&wdTripped != 0 {
			continue
		}
		if cur-uint32(v) <= watchdogLag {
			continue
		}
		// CAS so a concurrent Refresh/Idle wins over the latch.
		if m.wd[i].CompareAndSwap(v, v|wdTripped) {
			m.trips[i].Add(1)
			if m.rec != nil {
				m.rec.Record(obs.EpochActor, obs.KWatchdogTrip, cur, uint64(i), uint64(uint32(v)))
			}
		}
	}
}

// Start launches the advancer; onAdvance (optional) runs after each
// bump on the advancer goroutine. Start while already running is a
// no-op; Start/Stop are safe to call concurrently.
func (m *EpochManager) Start(onAdvance func(epoch uint32)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.chaosPoint(fault.PreEpochAdvance, stop)
				e := m.Advance()
				if onAdvance != nil {
					onAdvance(e)
				}
				m.chaosPoint(fault.PostEpochAdvance, stop)
			}
		}
	}()
}

// Stop halts the advancer. Extra Stops (including concurrent ones)
// are no-ops.
func (m *EpochManager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// chaosPoint obeys the injected perturbation on the advancer
// goroutine. ActRestart is meaningless for the advancer and ignored;
// sleeps are cut short by stop so chaos never delays shutdown.
func (m *EpochManager) chaosPoint(cp fault.Checkpoint, stop chan struct{}) {
	s := m.chaos
	if s == nil {
		return
	}
	act, d := s.At(fault.EpochSlot, cp)
	switch act {
	case fault.ActYield:
		runtime.Gosched()
	case fault.ActDelay, fault.ActStall:
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-stop:
		}
	}
}

// nextCommitTS computes a worker's commit timestamp per §4.3: the
// smallest timestamp that (a) exceeds the timestamp of every record
// the transaction read or wrote, (b) exceeds the worker's previous
// commit timestamp, (c) carries at least the current global epoch in
// its high half, and (d) whose sequence half falls in the worker's
// residue class (worker i of n draws sequences i, i+n, i+2n, ...).
func nextCommitTS(workerID, workers int, lastTS, maxSeen uint64, epoch uint32) uint64 {
	cand := maxSeen + 1
	if lastTS+1 > cand {
		cand = lastTS + 1
	}
	if floor := storage.MakeTS(epoch, 0); floor > cand {
		cand = floor
	}
	e, s := storage.SplitTS(cand)
	// Round the sequence half up to the worker's residue class.
	n := uint32(workers)
	w := uint32(workerID)
	rem := s % n
	var seq uint32
	switch {
	case rem == w:
		seq = s
	case rem < w:
		seq = s + (w - rem)
	default:
		seq = s + (n - rem + w)
	}
	if seq < s { // overflowed uint32: move to the next epoch
		e++
		seq = w
	}
	return storage.MakeTS(e, seq)
}
