// Package obs is THEDB's observability plane: a per-worker flight
// recorder of typed protocol events, Prometheus-text rendering of
// live metric snapshots, and an HTTP exposition endpoint.
//
// The flight recorder answers the question end-of-run aggregates
// cannot: *why* did the engine make a protocol decision — which key
// invalidated a read set, how much work a healing pass restored,
// when a THEDB-HYBRID transaction hopped to 2PL, whether a WAL sync failed
// before the watchdog tripped. Each worker owns a fixed-size ring of
// events; recording is wait-free for the (single) writer and costs
// nothing when disabled (callers gate every site on a nil *Recorder,
// mirroring how Options.Chaos keeps unchaosed hot paths at a single
// pointer check).
//
// Readers (the event dump, the /debug/events endpoint) run while
// workers keep recording: every slot is a tiny seqlock of atomic
// words, so a dump observes each event either fully or not at all
// and the race detector stays quiet.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Kind is a protocol event type.
type Kind uint8

// The event taxonomy (DESIGN.md §7.1). The A and B payload words are
// kind-specific and documented per constant.
const (
	// KNone marks an empty slot; never recorded.
	KNone Kind = iota
	// KValidationFail is an inconsistent read discovered during
	// validation. A = record key, B = table ID.
	KValidationFail
	// KFalseInval is a validation mismatch dismissed as a false
	// invalidation (§4.5). A = record key, B = table ID.
	KFalseInval
	// KHealStart begins a healing pass. A = record key of the
	// inconsistent element (0 for phantom repair), B = table ID.
	KHealStart
	// KHealEnd completes a healing pass. A = operations restored by
	// the pass, B = validation-frontier index where it ran.
	KHealEnd
	// KLadderEscalate is THEDB-HYBRID's hop from its OCC attempt to
	// 2PL. A = protocol escaped from, B = protocol escalated to
	// (core.Protocol values).
	KLadderEscalate
	// KEpochAdvance is a global epoch bump. A = new epoch.
	KEpochAdvance
	// KEpochSeal is the log-hardening seal of an epoch (group
	// commit). A = sealed epoch.
	KEpochSeal
	// KWALSync is one epoch log-sync attempt. A = 1 on success and 0
	// on failure, B = attempt ordinal (0 = first try).
	KWALSync
	// KWatchdogTrip is a stuck-epoch watchdog firing. A = the stalled
	// worker's ID, B = that worker's registered epoch.
	KWatchdogTrip
	// KCommit is a transaction commit. A = commit timestamp,
	// B = latency in microseconds.
	KCommit
	// KAbort is a permanent transaction failure. A = an AbortReason,
	// B = failed attempts consumed.
	KAbort
	numKinds
)

// String names the kind as it appears in dumps.
func (k Kind) String() string {
	switch k {
	case KValidationFail:
		return "validation-fail"
	case KFalseInval:
		return "false-invalidation"
	case KHealStart:
		return "heal-start"
	case KHealEnd:
		return "heal-end"
	case KLadderEscalate:
		return "ladder-escalate"
	case KEpochAdvance:
		return "epoch-advance"
	case KEpochSeal:
		return "epoch-seal"
	case KWALSync:
		return "wal-sync"
	case KWatchdogTrip:
		return "watchdog-trip"
	case KCommit:
		return "commit"
	case KAbort:
		return "abort"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AbortReason is the A payload of a KAbort event.
type AbortReason uint64

// Abort reasons.
const (
	// AbortUser is an application-initiated abort.
	AbortUser AbortReason = iota
)

// String names the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortUser:
		return "user"
	default:
		return fmt.Sprintf("reason(%d)", uint64(r))
	}
}

// EpochActor is the Record worker index for events originated by the
// epoch advancer rather than an execution worker (mirrors
// fault.EpochSlot).
const EpochActor = -1

// Event is one recorded protocol event, decoded for consumers.
type Event struct {
	// Seq is the recorder-global sequence number: events across all
	// workers sort into one total order by Seq.
	Seq uint64
	// Time is the wall-clock instant of the event.
	Time time.Time
	// Worker is the recording worker, or EpochActor for the advancer.
	Worker int
	// Kind is the event type.
	Kind Kind
	// Epoch is the global epoch observed at the event.
	Epoch uint32
	// A and B are the kind-specific payload words.
	A, B uint64
	// Trace is the transaction trace ID active when the event was
	// recorded (0 when untraced): the correlation key between the
	// flight recorder and the trace ring (DESIGN.md §7.3).
	Trace uint64
}

// slotWords is the per-slot word count: version/seq, unix-nano time,
// kind|epoch, A, B, trace.
const slotWords = 6

// slot is one seqlock-protected event cell. The writer publishes by
// storing 0 into w[0], then the payload, then the (nonzero) global
// sequence number back into w[0]; a reader that observes the same
// nonzero w[0] before and after reading the payload got a consistent
// event.
type slot struct {
	w [slotWords]atomic.Uint64
}

// ring is one worker's fixed-size event buffer. Exactly one goroutine
// records into a ring at a time (the worker contract), so writes need
// no CAS; n counts events ever recorded for overwrite accounting.
type ring struct {
	slots []slot
	mask  uint64
	n     atomic.Uint64
}

func (r *ring) record(seq uint64, ts int64, kindEpoch, a, b, trace uint64) {
	s := &r.slots[r.n.Load()&r.mask]
	s.w[0].Store(0) // invalidate: readers mid-slot will retry
	s.w[1].Store(uint64(ts))
	s.w[2].Store(kindEpoch)
	s.w[3].Store(a)
	s.w[4].Store(b)
	s.w[5].Store(trace)
	s.w[0].Store(seq) // publish
	r.n.Add(1)
}

// load reads slot i consistently; ok is false while the writer is
// mid-publish (the event is simply skipped — it will be complete on
// the next dump).
func (s *slot) load() (ev [slotWords]uint64, ok bool) {
	v := s.w[0].Load()
	if v == 0 {
		return ev, false
	}
	ev[0] = v
	for i := 1; i < slotWords; i++ {
		ev[i] = s.w[i].Load()
	}
	return ev, s.w[0].Load() == v
}

// Recorder is the engine-wide flight recorder: one ring per worker
// plus one for the epoch advancer. Recording never blocks, never
// allocates, and overwrites the oldest events when a ring wraps.
type Recorder struct {
	rings []ring
	seq   atomic.Uint64
	start time.Time
	size  int
}

// NewRecorder builds a recorder for the given worker count with
// perWorker slots per ring (rounded up to a power of two, minimum 8).
func NewRecorder(workers, perWorker int) *Recorder {
	size := 8
	for size < perWorker {
		size <<= 1
	}
	r := &Recorder{
		rings: make([]ring, workers+1), // +1: the epoch advancer's ring
		start: time.Now(),
		size:  size,
	}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
		r.rings[i].mask = uint64(size - 1)
	}
	return r
}

// RingSize returns the per-worker slot count.
func (r *Recorder) RingSize() int { return r.size }

// Record appends one event to the worker's ring (EpochActor for the
// advancer). It is wait-free and allocation-free; each worker slot
// must be recorded into by at most one goroutine at a time.
func (r *Recorder) Record(worker int, k Kind, epoch uint32, a, b uint64) {
	r.RecordT(worker, k, epoch, a, b, 0)
}

// RecordT is Record with a transaction trace ID attached: every event
// a traced transaction emits carries its trace ID, which is how
// /debug/trace correlates a retained trace with the exact recorder
// events of its heal passes and escalations. Same contract as Record:
// wait-free, allocation-free, single recording goroutine per slot.
func (r *Recorder) RecordT(worker int, k Kind, epoch uint32, a, b, trace uint64) {
	ring := &r.rings[r.slotIndex(worker)]
	seq := r.seq.Add(1)
	ring.record(seq, time.Now().UnixNano(), uint64(k)|uint64(epoch)<<8, a, b, trace)
}

func (r *Recorder) slotIndex(worker int) int {
	if worker < 0 || worker >= len(r.rings)-1 {
		return len(r.rings) - 1
	}
	return worker
}

// Recorded returns how many events have ever been recorded (including
// ones since overwritten).
func (r *Recorder) Recorded() uint64 { return r.seq.Load() }

// Dropped returns how many events have been overwritten by ring
// wrap-around and are no longer dumpable.
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.rings {
		if n := r.rings[i].n.Load(); n > uint64(r.size) {
			d += n - uint64(r.size)
		}
	}
	return d
}

// Events returns a merged snapshot of every ring, ordered by global
// sequence number (which is also causal order across workers). Safe
// to call while workers keep recording: events mid-publish or
// overwritten mid-read are skipped, never torn.
func (r *Recorder) Events() []Event {
	var out []Event
	for ri := range r.rings {
		ring := &r.rings[ri]
		worker := ri
		if ri == len(r.rings)-1 {
			worker = EpochActor
		}
		for si := range ring.slots {
			ev, ok := ring.slots[si].load()
			if !ok {
				continue
			}
			out = append(out, Event{
				Seq:    ev[0],
				Time:   time.Unix(0, int64(ev[1])),
				Worker: worker,
				Kind:   Kind(ev[2] & 0xff),
				Epoch:  uint32(ev[2] >> 8),
				A:      ev[3],
				B:      ev[4],
				Trace:  ev[5],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// DumpWith writes the merged, time-ordered event interleaving in a
// human-readable form. tableName resolves the table IDs carried by
// validation failures and heal starts; nil prints them raw.
func (r *Recorder) DumpWith(w io.Writer, tableName func(id int) string) {
	events := r.Events()
	fmt.Fprintf(w, "flight recorder: %d events retained (%d recorded, %d overwritten)\n",
		len(events), r.Recorded(), r.Dropped())
	for _, ev := range events {
		trace := ""
		if ev.Trace != 0 {
			trace = fmt.Sprintf(" trace=%016x", ev.Trace)
		}
		fmt.Fprintf(w, "  [%6d] %-12s %-7s epoch=%-4d %s%s\n",
			ev.Seq, ev.Time.Sub(r.start).Round(time.Microsecond), actorName(ev.Worker), ev.Epoch, ev.Detail(tableName), trace)
	}
}

func actorName(worker int) string {
	if worker == EpochActor {
		return "advancer"
	}
	return fmt.Sprintf("w%d", worker)
}

// Detail renders the kind-specific payload of the event.
func (ev Event) Detail(tableName func(id int) string) string {
	tbl := func(id uint64) string {
		if tableName != nil {
			if n := tableName(int(id)); n != "" {
				return n
			}
		}
		return fmt.Sprintf("table(%d)", id)
	}
	switch ev.Kind {
	case KValidationFail, KFalseInval:
		return fmt.Sprintf("%s %s[%d]", ev.Kind, tbl(ev.B), ev.A)
	case KHealStart:
		if ev.A == 0 && ev.B == 0 {
			return fmt.Sprintf("%s phantom-scan", ev.Kind)
		}
		return fmt.Sprintf("%s %s[%d]", ev.Kind, tbl(ev.B), ev.A)
	case KHealEnd:
		return fmt.Sprintf("%s ops-restored=%d frontier=%d", ev.Kind, ev.A, ev.B)
	case KLadderEscalate:
		// A and B are core.Protocol values (0=Healing, 1=OCC, 3=2PL).
		return fmt.Sprintf("%s proto %d -> %d", ev.Kind, ev.A, ev.B)
	case KEpochAdvance, KEpochSeal:
		return fmt.Sprintf("%s to=%d", ev.Kind, ev.A)
	case KWALSync:
		outcome := "ok"
		if ev.A == 0 {
			outcome = "FAILED"
		}
		return fmt.Sprintf("%s %s attempt=%d", ev.Kind, outcome, ev.B)
	case KWatchdogTrip:
		return fmt.Sprintf("%s stalled-worker=w%d stuck-epoch=%d", ev.Kind, ev.A, ev.B)
	case KCommit:
		return fmt.Sprintf("%s ts=%d latency=%dµs", ev.Kind, ev.A, ev.B)
	case KAbort:
		return fmt.Sprintf("%s reason=%s attempts=%d", ev.Kind, AbortReason(ev.A), ev.B)
	default:
		return fmt.Sprintf("%s a=%d b=%d", ev.Kind, ev.A, ev.B)
	}
}
