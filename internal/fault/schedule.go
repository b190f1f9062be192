package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Schedule is the protocol-level chaos injector: the engine consults
// it at named protocol checkpoints (pre-validation, mid-healing, the
// epoch advance, commit apply) and it answers with a scheduling
// perturbation — yield, delay, long stall, or a spurious restart of
// the attempt. It exists to force the adversarial interleavings that
// `go test`'s benign goroutine schedules never produce, so the
// validation, healing, and epoch-commit machinery is exercised under
// hostility rather than luck.
//
// Determinism: every decision stream is driven by a splitmix64
// generator seeded from (seed, slot), one independent slot per worker
// plus one for the epoch advancer. Re-running with the same seed
// replays the same per-slot decision sequences; the cross-slot
// interleaving still depends on the Go scheduler, but which visits of
// which checkpoint are perturbed does not. This seeded stream is the
// only sanctioned randomness on engine paths (`make lint` refuses a
// math/rand import in internal/core).
//
// Concurrency: configure (Inject/ScriptAt/SetDelay/...) before
// handing the schedule to an engine. Afterwards each slot must be
// driven by a single goroutine — exactly the contract engine workers
// already obey — while the hit counters may be read from anywhere.
type Schedule struct {
	seed    uint64
	workers int
	delay   time.Duration
	stall   time.Duration

	// prob[cp][act] is the probability that a visit of cp draws act.
	prob [NumCheckpoints][NumActions]float64

	// script holds forced actions for exact (slot, checkpoint, visit)
	// coordinates; they take precedence over the probabilistic draw.
	script []scriptedAction

	slots  []scheduleSlot
	counts [NumCheckpoints][NumActions]atomic.Int64
}

// Checkpoint names a protocol point where the engine consults the
// schedule (the chaos hook points in internal/core).
type Checkpoint uint8

// The protocol checkpoints, each perturbing one piece of the paper's
// machinery (see DESIGN.md §8.1 for the mapping).
const (
	// PreValidation fires between the read phase and validation
	// (Alg. 1's entry): perturbations here stretch the window in
	// which concurrent commits invalidate the read set.
	PreValidation Checkpoint = iota
	// MidHealing fires between restorations of the healing queue
	// (Alg. 2): perturbations here let conflicting commits land while
	// a repair is in flight, forcing healing over healed state.
	MidHealing
	// PreEpochAdvance and PostEpochAdvance bracket the global epoch
	// bump (Alg. 3): delaying the advancer starves commit timestamps
	// of fresh epochs and batches group commits arbitrarily.
	PreEpochAdvance
	PostEpochAdvance
	// CommitApply fires at the head of the write phase (Alg. 3),
	// while every protocol lock is held: delays here maximize lock
	// hold times, restarts exercise the full-abort cleanup path.
	CommitApply
	// NumCheckpoints bounds the checkpoint space.
	NumCheckpoints
)

// String names the checkpoint.
func (c Checkpoint) String() string {
	switch c {
	case PreValidation:
		return "pre-validation"
	case MidHealing:
		return "mid-healing"
	case PreEpochAdvance:
		return "pre-epoch-advance"
	case PostEpochAdvance:
		return "post-epoch-advance"
	case CommitApply:
		return "commit-apply"
	default:
		return fmt.Sprintf("checkpoint(%d)", uint8(c))
	}
}

// Action is what the engine must do at a checkpoint.
type Action uint8

// Actions a checkpoint visit can draw.
const (
	// ActNone passes through unperturbed.
	ActNone Action = iota
	// ActYield yields the scheduler slice (runtime.Gosched).
	ActYield
	// ActDelay sleeps the short Delay duration.
	ActDelay
	// ActStall sleeps the long Stall duration — long enough to trip
	// the stuck-epoch watchdog.
	ActStall
	// ActRestart makes the attempt fail with a spurious restart (the
	// engine treats it exactly like a validation abort). Ignored by
	// the epoch advancer, where restarting is meaningless.
	ActRestart
	// NumActions bounds the action space.
	NumActions
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActYield:
		return "yield"
	case ActDelay:
		return "delay"
	case ActStall:
		return "stall"
	case ActRestart:
		return "restart"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// EpochSlot addresses the epoch advancer's decision stream in At.
const EpochSlot = -1

type scriptedAction struct {
	slot  int
	cp    Checkpoint
	visit int
	act   Action
}

type scheduleSlot struct {
	rng    uint64
	visits [NumCheckpoints]int
	// pad separates slots onto distinct cache lines; the decision
	// streams sit on every worker's hot path during chaos runs.
	_ [14]uint64
}

// NewSchedule builds an injector for the given worker count (plus the
// implicit epoch-advancer slot) with everything disarmed: every visit
// draws ActNone until probabilities or scripted actions are set.
func NewSchedule(seed uint64, workers int) *Schedule {
	if workers < 1 {
		workers = 1
	}
	s := &Schedule{
		seed:    seed,
		workers: workers,
		delay:   2 * time.Microsecond,
		stall:   10 * time.Millisecond,
		slots:   make([]scheduleSlot, workers+1),
	}
	for i := range s.slots {
		// splitmix64 of (seed, slot) decorrelates the per-slot streams.
		s.slots[i].rng = mix64(seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return s
}

// Seed returns the schedule's seed (test labeling).
func (s *Schedule) Seed() uint64 { return s.seed }

// SetDelay sets the ActDelay sleep (default 2µs).
func (s *Schedule) SetDelay(d time.Duration) { s.delay = d }

// SetStall sets the ActStall sleep (default 10ms).
func (s *Schedule) SetStall(d time.Duration) { s.stall = d }

// Inject arms action act at checkpoint cp with probability p per
// visit. The per-checkpoint action probabilities must sum to ≤ 1.
func (s *Schedule) Inject(cp Checkpoint, act Action, p float64) {
	s.prob[cp][act] = p
}

// ScriptAt forces act on the visit-th consultation (0-based) of cp by
// the given worker slot (EpochSlot for the advancer), overriding the
// probabilistic draw. Scripted actions make single hostile schedules
// — a stalled worker, a restart storm — exactly reproducible.
func (s *Schedule) ScriptAt(worker int, cp Checkpoint, visit int, act Action) {
	s.script = append(s.script, scriptedAction{slot: s.slotIndex(worker), cp: cp, visit: visit, act: act})
}

// StallAt is ScriptAt with ActStall: stall the worker's visit-th pass
// through cp for the configured stall duration.
func (s *Schedule) StallAt(worker int, cp Checkpoint, visit int) {
	s.ScriptAt(worker, cp, visit, ActStall)
}

// At draws the action for one visit of cp by the given worker
// (EpochSlot for the epoch advancer) and returns it with the sleep
// duration that applies (zero for yield/restart/none). Each slot must
// be consulted by a single goroutine.
func (s *Schedule) At(worker int, cp Checkpoint) (Action, time.Duration) {
	sl := &s.slots[s.slotIndex(worker)]
	visit := sl.visits[cp]
	sl.visits[cp]++
	// Advance the stream even when a scripted action preempts the
	// draw, so scripting one visit does not shift every later one.
	u := sl.draw()
	act := ActNone
	if sc, ok := s.scripted(s.slotIndex(worker), cp, visit); ok {
		act = sc
	} else {
		acc := 0.0
		for a := ActYield; a < NumActions; a++ {
			acc += s.prob[cp][a]
			if u < acc {
				act = a
				break
			}
		}
	}
	s.counts[cp][act].Add(1)
	switch act {
	case ActDelay:
		return act, s.delay
	case ActStall:
		return act, s.stall
	default:
		return act, 0
	}
}

// Count returns how often act was drawn at cp.
func (s *Schedule) Count(cp Checkpoint, act Action) int64 {
	return s.counts[cp][act].Load()
}

// Total returns how often act was drawn across all checkpoints.
func (s *Schedule) Total(act Action) int64 {
	var n int64
	for cp := Checkpoint(0); cp < NumCheckpoints; cp++ {
		n += s.counts[cp][act].Load()
	}
	return n
}

func (s *Schedule) scripted(slot int, cp Checkpoint, visit int) (Action, bool) {
	for _, sc := range s.script {
		if sc.slot == slot && sc.cp == cp && sc.visit == visit {
			return sc.act, true
		}
	}
	return ActNone, false
}

// slotIndex maps a worker id to its slot: workers occupy [0, workers),
// the epoch advancer (and any out-of-range id, defensively) the last.
func (s *Schedule) slotIndex(worker int) int {
	if worker >= 0 && worker < s.workers {
		return worker
	}
	return s.workers
}

// draw advances the slot's splitmix64 stream and returns a value in
// [0, 1).
func (sl *scheduleSlot) draw() float64 {
	sl.rng += 0x9e3779b97f4a7c15
	return float64(mix64(sl.rng)>>11) / (1 << 53)
}

// mix64 is splitmix64's output permutation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
