package server

import (
	"sync"
	"testing"

	"thedb/internal/metrics"
	"thedb/internal/wire"
)

// TestSessionEvictionBesideLiveSessions drives the registry's one
// nested lock — registry.mu, then an idle session's mu, in
// evictSessionLocked — while live sessions run their dedup windows
// under session.mu alone. At the cap every bind of a new token evicts
// exactly one idle session, and never one with a bound connection.
func TestSessionEvictionBesideLiveSessions(t *testing.T) {
	const (
		live    = 4
		binders = 4
		binds   = 200
		calls   = 2 * dedupWindow
	)
	s := &Server{
		stats:    &metrics.Server{},
		sessions: registry{m: map[uint64]*session{}},
	}
	var lives []*session
	for tok := uint64(1); tok <= maxSessions; tok++ {
		ss := s.bindSession(tok)
		if tok <= live {
			lives = append(lives, ss)
		} else {
			ss.release()
		}
	}

	var wg sync.WaitGroup
	for _, ss := range lives {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= calls; seq++ {
				req := &request{call: wire.Call{Seq: seq}}
				ss.register([]*request{req}, nil)
				ss.complete(s, req.entry, []byte{byte(seq)}, true)
			}
		}()
	}
	for b := 0; b < binders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < binds; i++ {
				s.bindSession(uint64(1<<32 + b*binds + i)).release()
			}
		}()
	}
	wg.Wait()

	if n := len(s.sessions.m); n != maxSessions {
		t.Errorf("registry holds %d sessions, want the cap %d", n, maxSessions)
	}
	for i, ss := range lives {
		if s.sessions.m[uint64(i+1)] != ss {
			t.Errorf("live session %d was evicted", i+1)
		}
	}
	got := s.stats.Snapshot()
	if got.SessionsEvicted != binders*binds || got.Sessions != maxSessions {
		t.Errorf("evicted %d, gauge %d; want %d evictions at a gauge of %d",
			got.SessionsEvicted, got.Sessions, binders*binds, maxSessions)
	}
	if got.DedupEntries != live*dedupWindow {
		t.Errorf("dedup entries gauge = %d, want %d (only the live windows hold entries)", got.DedupEntries, live*dedupWindow)
	}
}
