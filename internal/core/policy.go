package core

import (
	"fmt"

	"thedb/internal/metrics"
)

// policy is everything that distinguishes one protocol from another.
// Every attempt runs the same pipeline — execute → lock/validate →
// on-stale-read action → commit — and reads these fields where the
// protocols differ (DESIGN.md §2 tabulates them per system). The
// validation order is deliberately not among them: every rung of
// every transaction on an engine locks in Options.Order, so rungs
// running side by side cannot deadlock (§4.2.1).
type policy struct {
	// proto names the rung in traces and escalation events.
	proto Protocol

	// lockAtAccess takes each record's lock when it is first touched,
	// no-wait, and skips validation (2PL). Otherwise locks are taken
	// at validation, in the engine's order.
	lockAtAccess bool
	// metaLocks makes lock-at-access go through the record meta word
	// (exclusive only) instead of the reader/writer lock: a 2PL rung
	// under an optimistic engine must exclude concurrent optimistic
	// transactions, which respect nothing else.
	metaLocks bool
	// writeSetOnly locks just the write set and checks reads unlocked
	// once every write lock is held (Silo). Otherwise the whole
	// read/write set is locked.
	writeSetOnly bool
	// validate compares each read's R-timestamp (and each scanned
	// leaf's version) against the current one. Off, nothing restarts
	// and nothing is serializable (the OCC⁻/SILO⁻ peak probes).
	validate bool
	// heal repairs a stale read in place (Algorithm 2) instead of
	// restarting, which requires maintaining the access cache during
	// execution; both are this one switch.
	heal bool
	// readCopies keeps per-read column copies, so a timestamp mismatch
	// caused by a write to other columns is dismissed (§4.5).
	readCopies bool
	// stripes holds the partition stripes the arguments name for the
	// whole transaction (DT): conflicting transactions never overlap,
	// so nothing needs validating.
	stripes bool
	// yield hands the scheduler over after every operation of the read
	// phase (Options.Interleave). The only field an attempt overrides:
	// see Worker.attempt.
	yield bool
}

// rung is one step of the degradation ladder: a policy and how many
// failed attempts it absorbs before the ladder escalates (0 = no
// bound).
type rung struct {
	policy
	budget int
}

// policyFor derives the policy of a rung running proto on an engine
// configured by opts.
func policyFor(opts *Options, proto Protocol) policy {
	p := policy{proto: proto, yield: opts.Interleave}
	switch proto {
	case Healing:
		p.validate = true
		p.heal = !opts.NoAccessCache
		p.readCopies = !opts.NoReadCopies
	case OCC:
		p.validate = true
	case Silo, SiloNoValidate, DT:
		p.writeSetOnly = true
		p.validate = proto == Silo
		p.stripes = proto == DT
	case TPL:
		p.lockAtAccess = true
		p.metaLocks = opts.Protocol != TPL
	case OCCNoValidate:
		// Lock everything, check nothing.
	default:
		// Hybrid is a ladder of OCC and TPL rungs, never a rung itself;
		// anything else is not a Protocol constant.
		panic(fmt.Sprintf("core: no policy for protocol %v", proto))
	}
	return p
}

// newRungs builds the ladder a transaction descends on an engine
// configured by opts (DESIGN.md §10): healing stops paying off once
// the same transaction keeps invalidating, plain OCC restarts stop
// paying off under sustained conflict, and 2PL is the rung that
// cannot livelock. With no retry budget the ladder is a single
// unbounded rung, or OCC-then-2PL for THEDB-HYBRID (references
// [28, 52, 60]). Ad-hoc transactions carry no dependency information
// (§4.8), so where a stored procedure would heal they start at OCC.
func newRungs(opts *Options, adhoc bool) []rung {
	base := opts.Protocol
	if adhoc && (base == Healing || base == Hybrid) {
		base = OCC
	}
	mk := func(budget int, protos ...Protocol) []rung {
		rungs := make([]rung, len(protos))
		for i, p := range protos {
			rungs[i] = rung{policy: policyFor(opts, p), budget: budget}
		}
		return rungs
	}
	budget := opts.RetryBudget
	switch {
	case budget <= 0 && base == Hybrid:
		// One OCC attempt, then 2PL until it commits.
		rungs := mk(0, OCC, TPL)
		rungs[0].budget = 1
		return rungs
	case budget <= 0 || base == OCCNoValidate || base == SiloNoValidate || base == DT:
		// The no-validate protocols never restart; a budget is moot.
		return mk(0, base)
	case base == Healing:
		return mk(budget, Healing, OCC, TPL)
	case base == Hybrid:
		return mk(budget, OCC, TPL)
	case base == TPL:
		return mk(budget, TPL)
	default: // OCC, Silo
		return mk(budget, base, TPL)
	}
}

// ladder tracks one transaction's descent down its engine's rungs.
type ladder struct {
	rungs []rung
	idx   int
	spent int // failed attempts on the current rung
	total int // failed attempts overall
}

// next consumes one failed attempt and reports whether another may
// run, escalating to the next rung — and resetting the per-rung
// attempt counter, so backoff jitter restarts from its shortest
// window — when the current budget is spent.
func (l *ladder) next(m *metrics.Worker) bool {
	l.total++
	l.spent++
	if b := l.rungs[l.idx].budget; b > 0 && l.spent >= b {
		l.idx++
		l.spent = 0
		if l.idx >= len(l.rungs) {
			return false
		}
		m.HealingFallbacks.Add(1)
	}
	return true
}
