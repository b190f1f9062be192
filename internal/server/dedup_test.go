package server_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"thedb"
	"thedb/internal/obs"
	"thedb/internal/server"
	"thedb/internal/wire"
)

// rawDialSession is rawDial presenting an existing session token, the
// reconnect path of an exactly-once retry.
func rawDialSession(t *testing.T, addr string, session uint64) (net.Conn, *wire.Reader, wire.Welcome) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(15 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Client: "dedup-test", Session: session})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	fr := wire.NewReader(nc, wire.DefaultMaxFrame)
	f, err := fr.Next()
	if err != nil || f.Op != wire.OpWelcome {
		t.Fatalf("welcome: op=%d err=%v", f.Op, err)
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatalf("decode welcome: %v", err)
	}
	return nc, fr, w
}

func writeFrames(t *testing.T, nc net.Conn, buf []byte) {
	t.Helper()
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func nextFrame(t *testing.T, fr *wire.Reader) wire.Frame {
	t.Helper()
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return f
}

func resultInt(t *testing.T, f wire.Frame, name string) int64 {
	t.Helper()
	if f.Op != wire.OpResult {
		if f.Op == wire.OpError {
			re, _ := wire.DecodeError(f.Payload)
			t.Fatalf("id %d: error %+v, want result", f.ID, re)
		}
		t.Fatalf("id %d: op %s, want result", f.ID, wire.OpName(f.Op))
	}
	outs, err := wire.DecodeResult(f.Payload)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	for _, o := range outs {
		if o.Name == name && len(o.Vals) == 1 {
			return o.Vals[0].Int()
		}
	}
	t.Fatalf("output %q missing from %+v", name, outs)
	return 0
}

// TestDedupReplaysCachedResponse proves the exactly-once core: a
// retried (session, seq) is answered from the window under the new
// request id and the transaction does not run twice. The cached
// counters must also surface in the Prometheus rendering.
func TestDedupReplaysCachedResponse(t *testing.T) {
	db := newKVDB(t, 2, nil)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, w := rawDialSession(t, addr, 0)
	if w.Session == 0 || w.Incarnation == 0 || w.DedupWindow == 0 {
		t.Fatalf("welcome missing session fields: %+v", w)
	}

	writeFrames(t, nc, wire.AppendCall(nil, 1, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(5), thedb.Int(10)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 10 {
		t.Fatalf("first execution val = %d, want 10", v)
	}

	// Retry the same seq under a fresh request id.
	writeFrames(t, nc, wire.AppendCall(nil, 2, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(5), thedb.Int(10)},
	}))
	f := nextFrame(t, fr)
	if f.ID != 2 {
		t.Fatalf("replay answered id %d, want 2", f.ID)
	}
	if v := resultInt(t, f, "val"); v != 10 {
		t.Fatalf("replayed val = %d, want 10 (cached response)", v)
	}

	// The increment applied once: the row still reads 10.
	writeFrames(t, nc, wire.AppendCall(nil, 3, wire.Call{
		Proc: "KVGet", Seq: 2, Args: []thedb.Value{thedb.Int(5)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 10 {
		t.Fatalf("row = %d after replayed retry, want 10 (double apply!)", v)
	}

	snap := srv.Stats().Snapshot()
	if snap.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", snap.DedupHits)
	}
	if snap.DedupEntries != 2 || snap.Sessions != 1 {
		t.Fatalf("DedupEntries = %d Sessions = %d, want 2 and 1", snap.DedupEntries, snap.Sessions)
	}

	var sb strings.Builder
	obs.WritePromServer(&sb, snap)
	out := sb.String()
	for _, want := range []string{
		"thedb_server_dedup_hits_total 1",
		"thedb_server_dedup_entries 2",
		"thedb_server_sessions 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestDedupSurvivesReconnect retries an answered call over a brand-new
// connection presenting the old session token — the actual shape of an
// ambiguous-failure retry after a connection reset.
func TestDedupSurvivesReconnect(t *testing.T) {
	db := newKVDB(t, 2, nil)
	srv, addr := startServer(t, db, server.Config{})

	nc1, fr1, w := rawDialSession(t, addr, 0)
	writeFrames(t, nc1, wire.AppendCall(nil, 1, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(7), thedb.Int(3)},
	}))
	if v := resultInt(t, nextFrame(t, fr1), "val"); v != 3 {
		t.Fatalf("val = %d, want 3", v)
	}
	_ = nc1.Close()

	nc2, fr2, w2 := rawDialSession(t, addr, w.Session)
	if w2.Session != w.Session {
		t.Fatalf("rejoin bound session %#x, presented %#x", w2.Session, w.Session)
	}
	writeFrames(t, nc2, wire.AppendCall(nil, 9, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(7), thedb.Int(3)},
	}))
	if v := resultInt(t, nextFrame(t, fr2), "val"); v != 3 {
		t.Fatalf("replayed val = %d, want 3", v)
	}
	writeFrames(t, nc2, wire.AppendCall(nil, 10, wire.Call{
		Proc: "KVGet", Seq: 2, Args: []thedb.Value{thedb.Int(7)},
	}))
	if v := resultInt(t, nextFrame(t, fr2), "val"); v != 3 {
		t.Fatalf("row = %d after cross-connection retry, want 3 (double apply!)", v)
	}
	if got := srv.Stats().Snapshot().DedupHits; got != 1 {
		t.Fatalf("DedupHits = %d, want 1", got)
	}
}

// registerSlowInc adds KVInc's slow twin: it sleeps ms before the
// read-modify-write, holding its dedup entry in the executing state
// long enough for a retry to park on it.
func registerSlowInc(db *thedb.DB) {
	db.MustRegister(&thedb.Spec{
		Name:   "SlowInc",
		Params: []string{"key", "ms"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "slowinc",
				KeyReads: []string{"key"},
				ValReads: []string{"ms"},
				Writes:   []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					time.Sleep(time.Duration(e.Int("ms")) * time.Millisecond)
					k := thedb.Key(e.Int("key"))
					row, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					var cur int64
					if ok {
						cur = row[0].Int()
					}
					e.SetInt("val", cur+1)
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{thedb.Int(cur + 1)})
					}
					return ctx.Insert("KV", k, thedb.Tuple{thedb.Int(cur + 1)})
				},
			})
		},
	})
}

// TestDedupCoalescesConcurrentRetry parks a retry that arrives while
// the original attempt is still executing: both get the answer of the
// single execution.
func TestDedupCoalescesConcurrentRetry(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{})

	ncA, frA, w := rawDialSession(t, addr, 0)
	ncB, frB, _ := rawDialSession(t, addr, w.Session)

	writeFrames(t, ncA, wire.AppendCall(nil, 1, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(200)},
	}))
	time.Sleep(50 * time.Millisecond) // let the original start executing
	writeFrames(t, ncB, wire.AppendCall(nil, 2, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(200)},
	}))

	if v := resultInt(t, nextFrame(t, frA), "val"); v != 1 {
		t.Fatalf("original val = %d, want 1", v)
	}
	if v := resultInt(t, nextFrame(t, frB), "val"); v != 1 {
		t.Fatalf("joined retry val = %d, want 1", v)
	}
	writeFrames(t, ncB, wire.AppendCall(nil, 3, wire.Call{
		Proc: "KVGet", Seq: 5, Args: []thedb.Value{thedb.Int(1)},
	}))
	if v := resultInt(t, nextFrame(t, frB), "val"); v != 1 {
		t.Fatalf("row = %d, want 1 (coalesced retry executed twice)", v)
	}
	if got := srv.Stats().Snapshot().DedupCoalesced; got != 1 {
		t.Fatalf("DedupCoalesced = %d, want 1", got)
	}
}

// TestDedupWindowEviction bounds the window: old completions fall out,
// and a retry of an evicted seq re-executes — the documented limit of
// the exactly-once guarantee.
func TestDedupWindowEviction(t *testing.T) {
	const window = server.DedupWindow
	db := newKVDB(t, 2, nil)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, w := rawDialSession(t, addr, 0)
	if w.DedupWindow != window {
		t.Fatalf("advertised window = %d, want %d", w.DedupWindow, window)
	}
	for seq := uint64(1); seq <= window+2; seq++ {
		writeFrames(t, nc, wire.AppendCall(nil, seq, wire.Call{
			Proc: "KVInc", Seq: seq, Args: []thedb.Value{thedb.Int(int64(seq)), thedb.Int(1)},
		}))
		if v := resultInt(t, nextFrame(t, fr), "val"); v != 1 {
			t.Fatalf("seq %d val = %d, want 1", seq, v)
		}
	}
	snap := srv.Stats().Snapshot()
	if snap.DedupEvicted != 2 || snap.DedupEntries != window {
		t.Fatalf("DedupEvicted = %d DedupEntries = %d, want 2 and %d", snap.DedupEvicted, snap.DedupEntries, window)
	}

	// Seq 1 was evicted: its retry re-executes and the row shows it.
	writeFrames(t, nc, wire.AppendCall(nil, window+3, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(1), thedb.Int(1)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 2 {
		t.Fatalf("evicted-seq retry val = %d, want 2 (re-execution)", v)
	}
}

// TestDedupWaiterOnRecycledEntry parks a retry on a dedup entry that
// has already lived one life: once the window is full, earlier
// completions were evicted and recycled before the slow call took one
// of them, and further completions keep evicting and recycling around
// it while the retry waits. The one execution must answer original and
// retry exactly once each, and nothing parked on an entry's earlier
// life may leak into its next.
func TestDedupWaiterOnRecycledEntry(t *testing.T) {
	const window = server.DedupWindow
	db := newKVDB(t, 2, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{})

	ncA, frA, w := rawDialSession(t, addr, 0)
	ncB, frB, _ := rawDialSession(t, addr, w.Session)
	inc := func(seq uint64) {
		t.Helper()
		writeFrames(t, ncA, wire.AppendCall(nil, seq, wire.Call{
			Proc: "KVInc", Seq: seq, Args: []thedb.Value{thedb.Int(100 + int64(seq)), thedb.Int(1)},
		}))
		if f := nextFrame(t, frA); f.ID != seq || resultInt(t, f, "val") != 1 {
			t.Fatalf("seq %d: answered by frame id %d", seq, f.ID)
		}
	}
	for seq := uint64(1); seq <= window+2; seq++ {
		inc(seq) // fills the window, then evicts and recycles two entries
	}
	for round := uint64(0); round < 2; round++ { // the second round re-parks on an entry a waiter already left
		slow := window + 10 + 10*round
		writeFrames(t, ncA, wire.AppendCall(nil, slow, wire.Call{
			Proc: "SlowInc", Seq: slow, Args: []thedb.Value{thedb.Int(1), thedb.Int(300)},
		}))
		time.Sleep(50 * time.Millisecond) // let the original start executing
		writeFrames(t, ncB, wire.AppendCall(nil, slow+1, wire.Call{
			Proc: "SlowInc", Seq: slow, Args: []thedb.Value{thedb.Int(1), thedb.Int(300)},
		}))
		// The other dispatcher keeps completing, evicting and recycling
		// while the retry is parked.
		for seq := slow + 2; seq < slow+6; seq++ {
			inc(seq)
		}
		want := int64(round + 1)
		if f := nextFrame(t, frA); f.ID != slow || resultInt(t, f, "val") != want {
			t.Fatalf("round %d: original answered by frame id %d", round, f.ID)
		}
		if f := nextFrame(t, frB); f.ID != slow+1 || resultInt(t, f, "val") != want {
			t.Fatalf("round %d: parked retry answered by frame id %d", round, f.ID)
		}
		// Exactly once: the next frame on B answers B's next call, not
		// the parked retry a second time; and the row moved by one.
		writeFrames(t, ncB, wire.AppendCall(nil, slow+9, wire.Call{
			Proc: "KVGet", Seq: slow + 9, Args: []thedb.Value{thedb.Int(1)},
		}))
		if f := nextFrame(t, frB); f.ID != slow+9 || resultInt(t, f, "val") != want {
			t.Fatalf("round %d: frame id %d after the parked retry, want %d with val %d", round, f.ID, slow+9, want)
		}
	}
	snap := srv.Stats().Snapshot()
	if snap.DedupCoalesced != 2 || snap.DedupHits != 0 || snap.DedupEntries != window {
		t.Fatalf("DedupCoalesced = %d DedupHits = %d DedupEntries = %d, want 2, 0 and %d", snap.DedupCoalesced, snap.DedupHits, snap.DedupEntries, window)
	}
}

// TestDedupDuplicateFrameDuringDrain duplicates a call's frame across
// the instant the server starts draining: the first copy was admitted,
// the second arrives with the flag up. The duplicate must share the
// one execution's answer. A draining rejection under the same request
// id would tell the client the call never ran and send it, same seq,
// to the next incarnation — whose empty window would run it again. A
// seq the window has never seen is still refused.
func TestDedupDuplicateFrameDuringDrain(t *testing.T) {
	db := newKVDB(t, 1, nil)
	registerSlowInc(db)
	db.Start()
	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	nc, fr, _ := rawDialSession(t, l.Addr().String(), 0)
	frame := wire.AppendCall(nil, 1, wire.Call{
		Proc: "SlowInc", Seq: 7, Args: []thedb.Value{thedb.Int(1), thedb.Int(300)},
	})
	writeFrames(t, nc, frame)
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Snapshot().Requests == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("slow call never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown raise the draining flag
	writeFrames(t, nc, frame)
	writeFrames(t, nc, wire.AppendCall(nil, 2, wire.Call{
		Proc: "SlowInc", Seq: 8, Args: []thedb.Value{thedb.Int(1), thedb.Int(0)},
	}))

	results := 0
	for i := 0; i < 3; i++ {
		switch f := nextFrame(t, fr); {
		case f.ID == 1:
			if v := resultInt(t, f, "val"); v != 1 {
				t.Fatalf("val = %d, want 1", v)
			}
			results++
		case f.ID == 2 && f.Op == wire.OpError:
			if re, err := wire.DecodeError(f.Payload); err != nil || re.Code != wire.CodeDraining {
				t.Fatalf("new seq during drain: %+v, %v, want draining", re, err)
			}
		default:
			t.Fatalf("unexpected frame op=%s id=%d", wire.OpName(f.Op), f.ID)
		}
	}
	if results != 2 {
		t.Fatalf("%d results for the duplicated frame, want 2", results)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestDeadlineBudgetRejectsQueuedCall queues a call with a tiny budget
// behind a slow transaction on a single dispatcher: by pickup time the
// budget is dead and the server must refuse to execute it.
func TestDeadlineBudgetRejectsQueuedCall(t *testing.T) {
	db := newKVDB(t, 1, nil)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, _ := rawDialSession(t, addr, 0)
	var buf []byte
	buf = wire.AppendCall(buf, 1, wire.Call{Proc: "Slow", Args: []thedb.Value{thedb.Int(150)}})
	buf = wire.AppendCall(buf, 2, wire.Call{Proc: "KVGet", BudgetUS: 2000, Args: []thedb.Value{thedb.Int(1)}})
	writeFrames(t, nc, buf)

	var sawDeadline bool
	for i := 0; i < 2; i++ {
		f := nextFrame(t, fr)
		switch f.ID {
		case 1:
			if f.Op != wire.OpResult {
				t.Fatalf("slow call op = %s, want result", wire.OpName(f.Op))
			}
		case 2:
			re, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatalf("id 2: op=%s err=%v, want deadline error", wire.OpName(f.Op), err)
			}
			if re.Code != wire.CodeDeadline {
				t.Fatalf("id 2 code = %s, want deadline", wire.CodeName(re.Code))
			}
			if re.Retryable() {
				t.Fatalf("deadline error marked retryable")
			}
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("budgeted call was not deadline-rejected")
	}
	if got := srv.Stats().Snapshot().DeadlineRejected; got != 1 {
		t.Fatalf("DeadlineRejected = %d, want 1", got)
	}
}
