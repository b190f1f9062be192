package core

import "fmt"

// policy is everything that distinguishes one protocol from another.
// Every attempt runs the same pipeline — execute → lock/validate →
// on-stale-read action → commit — and reads these fields where the
// protocols differ (DESIGN.md §4.1 tabulates them per system). The
// validation order is deliberately not among them: every rung of
// every transaction on an engine locks in Options.Order, so rungs
// running side by side cannot deadlock (§4.2.1).
type policy struct {
	// proto names the rung in traces and escalation events.
	proto Protocol

	// lockAtAccess takes each record's lock when it is first touched,
	// no-wait, and validates only the scanned leaves, under those locks
	// (2PL). Otherwise locks are taken at validation, in the engine's
	// order.
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
	// leaf's version) against the current one. Off on an optimistic
	// rung, nothing restarts and nothing is serializable (the
	// OCC⁻/SILO⁻ peak probes).
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
		// Hybrid is an OCC rung then a TPL rung, never a rung itself;
		// anything else is not a Protocol constant.
		panic(fmt.Sprintf("core: no policy for protocol %v", proto))
	}
	return p
}

// newRungs builds the policies a transaction's attempts run under on
// an engine configured by opts (DESIGN.md §4.5): attempt n runs under
// rungs[min(n, len(rungs)-1)]. Every protocol is one rung that
// retries until it commits, except THEDB-HYBRID: one OCC attempt,
// then 2PL until it commits (references [28, 52, 60]). Ad-hoc
// transactions carry no dependency information (§4.8), so where a
// stored procedure would heal, or start HYBRID's OCC attempt, they
// run plain OCC.
func newRungs(opts *Options, adhoc bool) []policy {
	switch {
	case adhoc && (opts.Protocol == Healing || opts.Protocol == Hybrid):
		return []policy{policyFor(opts, OCC)}
	case opts.Protocol == Hybrid:
		return []policy{policyFor(opts, OCC), policyFor(opts, TPL)}
	default:
		return []policy{policyFor(opts, opts.Protocol)}
	}
}
