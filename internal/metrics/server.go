package metrics

import "sync/atomic"

// Server collects the network serving plane's counters. Like Worker,
// the int64 fields are written with atomic adds by the serving
// goroutines and may be read atomically mid-run (use Snapshot); a
// single Server instance is shared by all connections of one server.
type Server struct {
	// ConnsOpened / ConnsClosed count accepted and torn-down
	// connections; their difference is the currently-open gauge.
	ConnsOpened int64
	ConnsClosed int64

	// Requests counts admitted procedure invocations (shed requests
	// are not included).
	Requests int64

	// Runs counts hand-offs to a dispatcher: a run is a contiguous
	// share of one burst of pipelined calls, so Requests / Runs is the
	// mean run length — 1 under synchronous calls, more when the
	// per-run costs are being amortised.
	Runs int64

	// InFlight is the gauge of admitted-but-unanswered requests
	// across all connections.
	InFlight int64

	// Shed counts admission-control rejections: requests turned away
	// with a retryable contended/shed error because a per-connection
	// or global in-flight bound was hit. Shedding is visible by
	// design — never a silent drop.
	Shed int64

	// DrainRejected counts requests refused with the draining error
	// during graceful shutdown.
	DrainRejected int64

	// BadFrames counts protocol-violating frames (malformed payloads,
	// unexpected opcodes) answered with a bad-request error.
	BadFrames int64

	// BytesIn / BytesOut count raw connection bytes, frames included.
	BytesIn  int64
	BytesOut int64

	// DedupHits counts calls answered from a session's dedup window:
	// the retry of an already-completed (session, seq) was served the
	// cached response instead of executing again.
	DedupHits int64

	// DedupCoalesced counts retries that arrived while the original
	// attempt was still executing; they waited for its single execution
	// instead of starting another.
	DedupCoalesced int64

	// DedupEvicted counts completed entries pushed out of a session's
	// bounded dedup window. An evicted entry's retry would re-execute,
	// so sustained eviction under retry load is a sizing signal.
	DedupEvicted int64

	// DedupEntries is the gauge of completed responses currently held
	// across all sessions' dedup windows.
	DedupEntries int64

	// Sessions is the gauge of live client sessions; SessionsEvicted
	// counts idle sessions discarded to stay under the registry cap.
	Sessions        int64
	SessionsEvicted int64

	// DeadlineRejected counts calls refused because their deadline
	// budget was already exhausted when the server would have run them.
	DeadlineRejected int64
}

// Inc atomically adds 1 to a counter field of this collector; Add
// adds n. Callers pass a pointer to one of the exported fields,
// mirroring the Worker collector's idiom.
func (s *Server) Inc(field *int64) { atomic.AddInt64(field, 1) }

// Add atomically adds n to a counter field of this collector.
func (s *Server) Add(field *int64, n int64) { atomic.AddInt64(field, n) }

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
	var c ServerCounters
	c.ConnsOpened = atomic.LoadInt64(&s.ConnsOpened)
	c.ConnsClosed = atomic.LoadInt64(&s.ConnsClosed)
	c.Requests = atomic.LoadInt64(&s.Requests)
	c.Runs = atomic.LoadInt64(&s.Runs)
	c.InFlight = atomic.LoadInt64(&s.InFlight)
	c.Shed = atomic.LoadInt64(&s.Shed)
	c.DrainRejected = atomic.LoadInt64(&s.DrainRejected)
	c.BadFrames = atomic.LoadInt64(&s.BadFrames)
	c.BytesIn = atomic.LoadInt64(&s.BytesIn)
	c.BytesOut = atomic.LoadInt64(&s.BytesOut)
	c.DedupHits = atomic.LoadInt64(&s.DedupHits)
	c.DedupCoalesced = atomic.LoadInt64(&s.DedupCoalesced)
	c.DedupEvicted = atomic.LoadInt64(&s.DedupEvicted)
	c.DedupEntries = atomic.LoadInt64(&s.DedupEntries)
	c.Sessions = atomic.LoadInt64(&s.Sessions)
	c.SessionsEvicted = atomic.LoadInt64(&s.SessionsEvicted)
	c.DeadlineRejected = atomic.LoadInt64(&s.DeadlineRejected)
	return c
}
