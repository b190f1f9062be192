package metrics

import "sync/atomic"

// Server collects the network serving plane's counters. Like Worker,
// the fields are sync/atomic types written by the serving goroutines
// and read mid-run through Snapshot; a single Server instance is
// shared by all connections of one server.
type Server struct {
	// ConnsOpened / ConnsClosed count accepted and torn-down
	// connections; their difference is the currently-open gauge.
	ConnsOpened atomic.Int64
	ConnsClosed atomic.Int64

	// Requests counts admitted procedure invocations (shed requests
	// are not included).
	Requests atomic.Int64

	// Runs counts hand-offs to a dispatcher: a run is a contiguous
	// share of one burst of pipelined calls, so Requests / Runs is the
	// mean run length — 1 under synchronous calls, more when the
	// per-run costs are being amortised.
	Runs atomic.Int64

	// InFlight is the gauge of admitted-but-unanswered requests
	// across all connections.
	InFlight atomic.Int64

	// Shed counts admission-control rejections: requests turned away
	// with a retryable contended/shed error because a per-connection
	// or global in-flight bound was hit. Shedding is visible by
	// design — never a silent drop.
	Shed atomic.Int64

	// DrainRejected counts requests refused with the draining error
	// during graceful shutdown.
	DrainRejected atomic.Int64

	// BadFrames counts protocol-violating frames (malformed payloads,
	// unexpected opcodes) answered with a bad-request error.
	BadFrames atomic.Int64

	// BytesIn / BytesOut count raw connection bytes, frames included.
	BytesIn  atomic.Int64
	BytesOut atomic.Int64

	// DedupHits counts calls answered from a session's dedup window:
	// the retry of an already-completed (session, seq) was served the
	// cached response instead of executing again.
	DedupHits atomic.Int64

	// DedupCoalesced counts retries that arrived while the original
	// attempt was still executing; they waited for its single execution
	// instead of starting another.
	DedupCoalesced atomic.Int64

	// DedupEvicted counts completed entries pushed out of a session's
	// bounded dedup window. An evicted entry's retry would re-execute,
	// so sustained eviction under retry load is a sizing signal.
	DedupEvicted atomic.Int64

	// DedupEntries is the gauge of completed responses currently held
	// across all sessions' dedup windows.
	DedupEntries atomic.Int64

	// Sessions is the gauge of live client sessions; SessionsEvicted
	// counts idle sessions discarded to stay under the registry cap.
	Sessions        atomic.Int64
	SessionsEvicted atomic.Int64

	// DeadlineRejected counts calls refused because their deadline
	// budget was already exhausted when the server would have run them.
	DeadlineRejected atomic.Int64
}

// ServerCounters is the plain-field snapshot of a Server collector,
// mirroring the Worker/Counters split: Server fields are atomic-only,
// a ServerCounters value is ordinary data.
type ServerCounters struct {
	ConnsOpened   int64
	ConnsClosed   int64
	Requests      int64
	Runs          int64
	InFlight      int64
	Shed          int64
	DrainRejected int64
	BadFrames     int64
	BytesIn       int64
	BytesOut      int64

	DedupHits        int64
	DedupCoalesced   int64
	DedupEvicted     int64
	DedupEntries     int64
	Sessions         int64
	SessionsEvicted  int64
	DeadlineRejected int64
}

// Snapshot returns an atomically-read copy, safe to take while the
// server keeps serving.
func (s *Server) Snapshot() ServerCounters {
	return ServerCounters{
		ConnsOpened:      s.ConnsOpened.Load(),
		ConnsClosed:      s.ConnsClosed.Load(),
		Requests:         s.Requests.Load(),
		Runs:             s.Runs.Load(),
		InFlight:         s.InFlight.Load(),
		Shed:             s.Shed.Load(),
		DrainRejected:    s.DrainRejected.Load(),
		BadFrames:        s.BadFrames.Load(),
		BytesIn:          s.BytesIn.Load(),
		BytesOut:         s.BytesOut.Load(),
		DedupHits:        s.DedupHits.Load(),
		DedupCoalesced:   s.DedupCoalesced.Load(),
		DedupEvicted:     s.DedupEvicted.Load(),
		DedupEntries:     s.DedupEntries.Load(),
		Sessions:         s.Sessions.Load(),
		SessionsEvicted:  s.SessionsEvicted.Load(),
		DeadlineRejected: s.DeadlineRejected.Load(),
	}
}
