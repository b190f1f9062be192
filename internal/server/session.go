package server

import (
	"container/list"
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
// Lock order: registry.mu before session.mu. Connection sends never
// happen under either lock.

// waiter is a parked retry of an in-flight operation: the connection
// and request id to answer when the original execution completes.
type waiter struct {
	c  *conn
	id uint64
}

// dedupEntry tracks one (session, seq) operation. It is created
// executing (done=false, retries park in waiters) and either
// transitions to done with the response payload cached, or is removed
// when the outcome must not be replayed (retryable rejections, which a
// retry should re-attempt for real).
type dedupEntry struct {
	seq     uint64
	done    bool
	op      uint8  // response opcode once done
	payload []byte // response payload once done; immutable after
	waiters []waiter
}

// session is one client's exactly-once scope: the dedup window shared
// by every connection presenting the same token.
type session struct {
	token uint64

	refs     atomic.Int64 // connections currently bound to this session
	inflight atomic.Int64 // dedup-tracked operations currently executing

	mu      sync.Mutex
	entries map[uint64]*dedupEntry
	order   *list.List // completed entries, oldest first (eviction order)
}

// release drops one connection's binding (readLoop teardown).
func (ss *session) release() { ss.refs.Add(-1) }

// dedupVerdict is register's answer for an incoming (session, seq).
type dedupVerdict int

const (
	// dedupNew: first sighting; the caller owns the execution.
	dedupNew dedupVerdict = iota
	// dedupJoined: the original is still executing; the caller was
	// parked as a waiter and must not execute or answer.
	dedupJoined
	// dedupHit: already completed; answer from the entry's cached
	// response.
	dedupHit
)

// register classifies req's sequence number against the window. For
// dedupHit the returned entry's op/payload are safe to read without
// the lock: completed entries are immutable.
func (ss *session) register(req *request) (dedupVerdict, *dedupEntry) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if e, ok := ss.entries[req.seq]; ok {
		if e.done {
			return dedupHit, e
		}
		e.waiters = append(e.waiters, waiter{c: req.c, id: req.id})
		return dedupJoined, e
	}
	e := &dedupEntry{seq: req.seq}
	ss.entries[req.seq] = e
	ss.inflight.Add(1)
	return dedupNew, e
}

// complete finishes an executing entry, returning the parked retries
// the caller must answer (outside the lock). With cache=true the
// response is kept for future retries, evicting the oldest completed
// entries past the window bound; with cache=false the entry is
// removed so a retry re-executes — used for retryable rejections and
// deadline kills, where replaying the verdict would be wrong.
func (ss *session) complete(s *Server, e *dedupEntry, op uint8, payload []byte, cache bool, window int) []waiter {
	ss.mu.Lock()
	w := e.waiters
	e.waiters = nil
	if cache {
		e.done = true
		e.op = op
		e.payload = payload
		ss.order.PushBack(e)
		s.stats.Add(&s.stats.DedupEntries, 1)
		for ss.order.Len() > window {
			old := ss.order.Remove(ss.order.Front()).(*dedupEntry)
			delete(ss.entries, old.seq)
			s.stats.Inc(&s.stats.DedupEvicted)
			s.stats.Add(&s.stats.DedupEntries, -1)
		}
	} else {
		delete(ss.entries, e.seq)
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
	ss := &session{token: token, entries: map[uint64]*dedupEntry{}, order: list.New()}
	ss.refs.Add(1)
	r.m[token] = ss
	s.stats.Add(&s.stats.Sessions, 1)
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
			n := ss.order.Len()
			ss.mu.Unlock()
			delete(s.sessions.m, tok)
			s.stats.Add(&s.stats.DedupEntries, -int64(n))
			s.stats.Add(&s.stats.DedupEvicted, int64(n))
			s.stats.Add(&s.stats.Sessions, -1)
			s.stats.Inc(&s.stats.SessionsEvicted)
			return
		}
	}
}
