package server_test

import (
	"net"
	"sync"
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

// registerBlock adds Block, a procedure whose calls wait until open is
// called: admitted calls hold their slots and their share of the global
// bound for as long as a test needs. open is idempotent; a test calls
// it, or registers it with t.Cleanup after startServer so that it runs
// before the server drains.
func registerBlock(db *thedb.DB) (open func()) {
	gate := make(chan struct{})
	db.MustRegister(&thedb.Spec{
		Name: "Block",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "wait", Body: func(thedb.OpCtx) error { <-gate; return nil }})
		},
	})
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// blockBurst encodes n pipelined Block calls, ids and sequence numbers
// first+1 .. first+n.
func blockBurst(first uint64, n int) []byte {
	var buf []byte
	for i := uint64(1); i <= uint64(n); i++ {
		buf = wire.AppendCall(buf, first+i, wire.Call{Proc: "Block", Seq: first + i})
	}
	return buf
}

// TestSheddingBurstOverflow sends one call more than the connection has
// slots in one write: the slots are the bound, so exactly the overflow
// is shed — at once, while the window's calls are still executing —
// and the window is whole again once its calls are answered.
func TestSheddingBurstOverflow(t *testing.T) {
	const window = server.PerConnInFlight
	db := newKVDB(t, 1, nil)
	open := registerBlock(db)
	srv, addr := startServer(t, db, server.Config{})
	t.Cleanup(open)

	nc, fr, w := rawDialSession(t, addr, 0)
	if w.MaxInFlight != window {
		t.Fatalf("advertised window = %d, want %d", w.MaxInFlight, window)
	}
	writeFrames(t, nc, blockBurst(0, window+1))
	if ok, shed := countShed(t, fr, 1, "connection pipeline full"); ok != 0 || shed != 1 {
		t.Fatalf("%d+1 calls in one write: the first answer was not the overflow's refusal", window)
	}
	open()
	if ok, shed := countShed(t, fr, window, ""); ok != window || shed != 0 {
		t.Fatalf("the window's calls: %d executed, %d shed, want %d and 0", ok, shed, window)
	}
	writeFrames(t, nc, blockBurst(1000, window))
	if ok, shed := countShed(t, fr, window, "connection pipeline full"); ok != window || shed != 0 {
		t.Fatalf("a full window after the overflow: %d executed, %d shed", ok, shed)
	}
	if got := srv.Stats().Snapshot().Shed; got != 1 {
		t.Fatalf("stats.Shed = %d, want 1", got)
	}
}

// TestSheddingGlobalBound fills the global bound (128 × workers) but one
// from full connections, then sends two calls on another: the first is
// admitted and the second — one over the bound — is refused by the
// counter, as is the next call, at once, while the admitted calls are
// still executing, so no read loop ever waits for queue space. Once
// those calls have been answered, the server admits again.
func TestSheddingGlobalBound(t *testing.T) {
	const global = server.GlobalInFlightPerWorker // one worker
	db := newKVDB(t, 1, nil)
	open := registerBlock(db)
	srv, addr := startServer(t, db, server.Config{})
	t.Cleanup(open)

	type filler struct {
		nc    net.Conn
		fr    *wire.Reader
		calls int
	}
	var fill []filler
	for left := global - 1; left > 0; left -= server.PerConnInFlight {
		nc, fr, _ := rawDialSession(t, addr, 0)
		n := min(left, server.PerConnInFlight)
		writeFrames(t, nc, blockBurst(0, n))
		fill = append(fill, filler{nc, fr, n})
	}
	for srv.Stats().Snapshot().InFlight != global-1 {
		time.Sleep(time.Millisecond)
	}
	ncB, frB, _ := rawDialSession(t, addr, 0)
	writeFrames(t, ncB, blockBurst(0, 2))
	if ok, shed := countShed(t, frB, 1, "server at capacity"); ok != 0 || shed != 1 {
		t.Fatalf("two calls at one below the bound: the first answer was not the second call's refusal")
	}
	writeFrames(t, ncB, blockBurst(10, 1))
	if ok, shed := countShed(t, frB, 1, "server at capacity"); ok != 0 || shed != 1 {
		t.Fatalf("a call against a full server was not refused")
	}
	open()
	for i, f := range fill {
		if ok, _ := countShed(t, f.fr, f.calls, ""); ok != f.calls {
			t.Fatalf("filling connection %d: %d of %d executed", i, ok, f.calls)
		}
	}
	if ok, _ := countShed(t, frB, 1, ""); ok != 1 {
		t.Fatalf("the admitted call of the pair was not answered")
	}
	// The answered runs give their accounting back at once.
	for srv.Stats().Snapshot().InFlight != 0 {
		time.Sleep(time.Millisecond)
	}
	writeFrames(t, ncB, blockBurst(20, 1))
	if ok, _ := countShed(t, frB, 1, ""); ok != 1 {
		t.Fatalf("a call after the bound emptied was not admitted")
	}
	if got := srv.Stats().Snapshot().Shed; got != 2 {
		t.Fatalf("stats.Shed = %d, want 2", got)
	}
}
