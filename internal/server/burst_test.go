package server_test

import (
	"testing"
	"time"

	"thedb"
	"thedb/internal/server"
	"thedb/internal/wire"
)

// slowIncBurst encodes n pipelined SlowInc calls on distinct keys, ids
// and sequence numbers first+1 .. first+n.
func slowIncBurst(first uint64, n int, ms int64) []byte {
	var buf []byte
	for i := uint64(1); i <= uint64(n); i++ {
		buf = wire.AppendCall(buf, first+i, wire.Call{
			Proc: "SlowInc", Seq: first + i, Args: []thedb.Value{thedb.Int(int64(first + i)), thedb.Int(ms)},
		})
	}
	return buf
}

// TestBurstSpreadsAcrossWorkers pins the run-splitting rule: a burst is
// handed over as one contiguous run per worker, so a lone pipelining
// connection occupies every session — 16 calls of t on 4 workers take
// about 4t, not the 16t a single run would.
func TestBurstSpreadsAcrossWorkers(t *testing.T) {
	const workers, calls, ms = 4, 16, 25
	db := newKVDB(t, workers, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, _ := rawDialSession(t, addr, 0)
	start := time.Now()
	writeFrames(t, nc, slowIncBurst(0, calls, ms))
	for i := 0; i < calls; i++ {
		if f := nextFrame(t, fr); resultInt(t, f, "val") != 1 {
			t.Fatalf("id %d: val != 1", f.ID)
		}
	}
	took, each := time.Since(start), ms*time.Millisecond
	if took < calls/workers*each {
		t.Fatalf("%d calls of %v on %d workers took %v: faster than the workers allow", calls, each, workers, took)
	}
	if took > calls/2*each {
		t.Fatalf("%d calls of %v on %d workers took %v, want about %v: the burst did not spread",
			calls, each, workers, took, calls/workers*each)
	}
	// One write usually arrives as one burst (4 runs); however the
	// stream was cut, a run is never a single call's worth of hand-offs.
	st := srv.Stats().Snapshot()
	if st.Requests != calls || st.Runs < workers || st.Runs >= calls {
		t.Fatalf("requests %d, runs %d: want %d requests in at least %d and fewer than %d runs",
			st.Requests, st.Runs, calls, workers, calls)
	}
}

// countShed reads n responses and splits them into results and
// CodeShed refusals carrying msg; anything else fails the test.
func countShed(t *testing.T, fr *wire.Reader, n int, msg string) (ok, shed int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := nextFrame(t, fr)
		switch f.Op {
		case wire.OpResult:
			ok++
		case wire.OpError:
			re, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatalf("decode error frame: %v", err)
			}
			if re.Code != wire.CodeShed || re.Msg != msg || !re.Retryable() || re.Backoff <= 0 {
				t.Fatalf("id %d: error %+v, want a retryable CodeShed %q with a backoff hint", f.ID, re, msg)
			}
			shed++
		default:
			t.Fatalf("unexpected op %s", wire.OpName(f.Op))
		}
	}
	return ok, shed
}

// TestSheddingBurstOverflow sends three windows' worth of calls in one
// write: the slots are the bound, so exactly the overflow is shed, and
// the window is whole again once its calls are answered.
func TestSheddingBurstOverflow(t *testing.T) {
	const window = 4
	db := newKVDB(t, 1, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{PerConnInFlight: window})

	nc, fr, _ := rawDialSession(t, addr, 0)
	writeFrames(t, nc, slowIncBurst(0, 3*window, 40))
	if ok, shed := countShed(t, fr, 3*window, "connection pipeline full"); ok != window || shed != 2*window {
		t.Fatalf("3x%d calls in one write: %d executed, %d shed, want %d and %d", window, ok, shed, window, 2*window)
	}
	writeFrames(t, nc, slowIncBurst(100, window, 1))
	if ok, shed := countShed(t, fr, window, "connection pipeline full"); ok != window || shed != 0 {
		t.Fatalf("a full window after the overflow: %d executed, %d shed", ok, shed)
	}
	if got := srv.Stats().Snapshot().Shed; got != 2*window {
		t.Fatalf("stats.Shed = %d, want %d", got, 2*window)
	}
}

// TestSheddingGlobalBound fills GlobalInFlight from one connection and
// checks that a second connection's burst is refused by the counter —
// at once, while the first connection's calls are still executing, so
// no read loop ever waits for queue space — and admitted again once the
// first connection's run has been answered.
func TestSheddingGlobalBound(t *testing.T) {
	const global, ms = 4, 150
	db := newKVDB(t, 1, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{PerConnInFlight: 8, GlobalInFlight: global})

	ncA, frA, _ := rawDialSession(t, addr, 0)
	ncB, frB, _ := rawDialSession(t, addr, 0)
	writeFrames(t, ncA, slowIncBurst(0, global, ms))
	for srv.Stats().Snapshot().InFlight != global {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	writeFrames(t, ncB, slowIncBurst(100, global+1, 1))
	if ok, shed := countShed(t, frB, global+1, "server at capacity"); ok != 0 || shed != global+1 {
		t.Fatalf("burst against a full server: %d executed, %d shed, want 0 and %d", ok, shed, global+1)
	}
	if took := time.Since(start); took >= ms*time.Millisecond {
		t.Fatalf("the refusals took %v: they waited behind the executing calls (%dms each)", took, ms)
	}
	if ok, _ := countShed(t, frA, global, ""); ok != global {
		t.Fatalf("first connection: %d of %d executed", ok, global)
	}
	// A's run is answered; its accounting follows at once.
	for srv.Stats().Snapshot().InFlight != 0 {
		time.Sleep(time.Millisecond)
	}
	// One call over the bound in one burst: exactly the tail is shed.
	writeFrames(t, ncB, slowIncBurst(200, global+1, 20))
	if ok, shed := countShed(t, frB, global+1, "server at capacity"); ok != global || shed != 1 {
		t.Fatalf("burst one over the bound: %d executed, %d shed, want %d and 1", ok, shed, global)
	}
	if got := srv.Stats().Snapshot().Shed; got != global+2 {
		t.Fatalf("stats.Shed = %d, want %d", got, global+2)
	}
}
