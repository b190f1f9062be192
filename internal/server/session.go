package server

import (
	"sync"
	"sync/atomic"
)

// This file is the server half of exactly-once retries. A client binds
// a session token in the handshake and stamps every call with a
// per-session monotonic sequence number; the session keeps a bounded
// window of completed responses so a retry of an already-executed
// (session, seq) — sent after an ambiguous connection death — is
// answered from cache instead of running the transaction twice. A
// retry that arrives while the original is still executing parks as a
// waiter and shares the single execution's response.
//
// Lock order: registry.mu before session.mu. Connection puts never
// happen under either lock.

// dedupEntry tracks one (session, seq) operation. It starts executing
// (done=false, retries park in waiters) and either transitions to done
// with the response frame cached, or is dropped when the outcome must
// not be replayed (retryable rejections, which a retry should
// re-attempt for real). An evicted or dropped entry is recycled, frame
// buffer included, for the next new seq.
type dedupEntry struct {
	seq     uint64
	done    bool
	frame   []byte     // the encoded response once done; guarded by session.mu
	waiters []*request // parked retries' slots
}

// session is one client's exactly-once scope: the dedup window shared
// by every connection presenting the same token.
type session struct {
	token uint64

	refs     atomic.Int64 // connections currently bound to this session
	inflight atomic.Int64 // dedup-tracked operations currently executing

	mu      sync.Mutex
	entries map[uint64]*dedupEntry
	// ring holds the completed entries in completion order; once grown
	// to the window size, each completion evicts ring[head], the oldest.
	ring  []*dedupEntry
	head  int
	spare []*dedupEntry // recycled entries awaiting a new seq
}

// release drops one connection's binding (readLoop teardown).
func (ss *session) release() { ss.refs.Add(-1) }

// dedupVerdict is register's answer for an incoming (session, seq).
type dedupVerdict uint8

const (
	// dedupNew: first sighting (or a call the window does not track);
	// the caller owns the execution.
	dedupNew dedupVerdict = iota
	// dedupJoined: the original is still executing; the caller was
	// parked as a waiter and must not execute or answer.
	dedupJoined
	// dedupHit: already completed; answer from the cached response.
	dedupHit
)

// register classifies a burst's sequence numbers against the window
// under one lock hold, leaving each request its verdict (dedupNew
// already, from acquire). Read-only
// snapshot calls and Seq 0 skip the window: a snapshot writes nothing,
// so re-executing a retry is safe and cheaper than caching responses
// for it. A dedupHit's cached frame is appended to replay, in burst
// order, under the lock: the entry may be recycled the moment it drops.
// A dedupNew request owns the execution and carries the entry; a later
// duplicate in the same burst parks on it like any other.
func (ss *session) register(burst []*request, replay []byte) []byte {
	owned := int64(0)
	ss.mu.Lock()
	for _, req := range burst {
		if req.call.Seq == 0 || req.call.ReadOnly {
			continue
		}
		req.sess = ss
		if e, ok := ss.entries[req.call.Seq]; ok {
			if e.done {
				req.verdict = dedupHit
				replay = append(replay, e.frame...)
			} else {
				req.verdict = dedupJoined
				e.waiters = append(e.waiters, req)
			}
			continue
		}
		var e *dedupEntry
		if n := len(ss.spare); n > 0 {
			e, ss.spare = ss.spare[n-1], ss.spare[:n-1]
		} else {
			e = new(dedupEntry)
		}
		e.seq, e.done = req.call.Seq, false
		ss.entries[e.seq] = e
		req.entry = e
		owned++
	}
	ss.inflight.Add(owned)
	ss.mu.Unlock()
	return replay
}

// complete finishes an executing entry, returning the parked retries
// the caller must answer (outside the lock). With cache=true a copy of
// the response frame is kept for future retries, evicting the oldest
// completed entry once the window is full; with cache=false the entry
// is dropped so a retry re-executes — used for retryable rejections
// and deadline kills, where replaying the verdict would be wrong.
func (ss *session) complete(s *Server, e *dedupEntry, frame []byte, cache bool) []*request {
	ss.mu.Lock()
	// The waiters leave with their backing array: the entry may be
	// recycled and parked on again before the caller has served them.
	w := e.waiters
	e.waiters = nil
	if cache {
		e.done, e.frame = true, append(e.frame[:0], frame...)
		if len(ss.ring) < s.cfg.DedupWindow {
			ss.ring = append(ss.ring, e)
			s.stats.DedupEntries.Add(1)
			e = nil
		} else { // e takes the oldest entry's place; that one is dropped below
			e, ss.ring[ss.head] = ss.ring[ss.head], e
			ss.head = (ss.head + 1) % len(ss.ring)
			s.stats.DedupEvicted.Add(1)
		}
	}
	if e != nil {
		delete(ss.entries, e.seq)
		ss.spare = append(ss.spare, e)
	}
	ss.mu.Unlock()
	ss.inflight.Add(-1)
	return w
}

// registry maps session tokens to live sessions.
type registry struct {
	mu      sync.Mutex
	m       map[uint64]*session
	counter uint64
}

// bindSession resolves a handshake token to a session, minting a fresh
// token when the client presents 0. A non-zero token unknown to this
// registry (minted by a previous server incarnation, or evicted) gets
// a fresh session under the presented token, so a rejoining client
// keeps one identity; its pre-restart sequences are not replayable,
// which the client detects through the incarnation change.
func (s *Server) bindSession(token uint64) *session {
	r := &s.sessions
	r.mu.Lock()
	defer r.mu.Unlock()
	if token == 0 {
		r.counter++
		token = (s.incarnation&0xFFFFFFFF)<<32 | r.counter&0xFFFFFFFF
	}
	if ss, ok := r.m[token]; ok {
		ss.refs.Add(1)
		return ss
	}
	if len(r.m) >= maxSessions {
		s.evictSessionLocked()
	}
	ss := &session{token: token, entries: map[uint64]*dedupEntry{}}
	ss.refs.Add(1)
	r.m[token] = ss
	s.stats.Sessions.Add(1)
	return ss
}

// evictSessionLocked discards one idle session — no bound connections,
// nothing executing — to make room under the registry cap. When every
// session is busy the cap is exceeded rather than breaking a live
// client: correctness over the bound, and the gauge makes it visible.
func (s *Server) evictSessionLocked() {
	for tok, ss := range s.sessions.m {
		if ss.refs.Load() == 0 && ss.inflight.Load() == 0 {
			ss.mu.Lock()
			n := len(ss.ring)
			ss.mu.Unlock()
			delete(s.sessions.m, tok)
			s.stats.DedupEntries.Add(-int64(n))
			s.stats.DedupEvicted.Add(int64(n))
			s.stats.Sessions.Add(-1)
			s.stats.SessionsEvicted.Add(1)
			return
		}
	}
}
