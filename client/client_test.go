package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb/internal/storage"
	"thedb/internal/wire"
)

// fakeServer speaks just enough of the wire protocol to unit-test the
// client: handshake, then a caller-supplied handler per CALL frame.
// The handler returns the encoded response frame (nil = no response,
// killConn = drop the connection on the floor).
type fakeServer struct {
	t       *testing.T
	l       net.Listener
	handler func(f wire.Frame, c wire.Call) []byte
	// welcome shapes the handshake reply per connection (nil =
	// sessionWelcome(1)). The conn number is 1-based in accept order.
	welcome func(h wire.Hello, connNo int64) wire.Welcome
	conns   atomic.Int64
}

// killConn, returned from a handler, makes the fake server drop the
// connection without answering — the ambiguous window.
var killConn = []byte{}

func newFakeServer(t *testing.T, handler func(f wire.Frame, c wire.Call) []byte) *fakeServer {
	return newFakeServerW(t, nil, handler)
}

func newFakeServerW(t *testing.T, welcome func(wire.Hello, int64) wire.Welcome, handler func(f wire.Frame, c wire.Call) []byte) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fs := &fakeServer{t: t, l: l, handler: handler, welcome: welcome}
	go fs.acceptLoop()
	t.Cleanup(func() {
		if err := l.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("fake server close: %v", err)
		}
	})
	return fs
}

func (fs *fakeServer) addr() string { return fs.l.Addr().String() }

func (fs *fakeServer) acceptLoop() {
	for {
		nc, err := fs.l.Accept()
		if err != nil {
			return
		}
		go fs.serve(nc, fs.conns.Add(1))
	}
}

func (fs *fakeServer) serve(nc net.Conn, connNo int64) {
	defer func() {
		if err := nc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			fs.t.Logf("fake conn close: %v", err)
		}
	}()
	fr := wire.NewReader(nc, wire.DefaultMaxFrame)
	f, err := fr.Next()
	if err != nil || f.Op != wire.OpHello {
		return
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return
	}
	welcome := fs.welcome
	if welcome == nil {
		welcome = sessionWelcome(1)
	}
	w := welcome(h, connNo)
	if _, err := nc.Write(wire.AppendWelcome(nil, w)); err != nil {
		return
	}
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		c, err := wire.DecodeCall(f.Payload)
		if err != nil {
			return
		}
		if resp := fs.handler(f, c); resp != nil {
			if len(resp) == 0 {
				return // killConn: die without answering
			}
			if _, err := nc.Write(resp); err != nil {
				return
			}
		}
	}
}

// sessionWelcome is a welcome func granting dedup-capable sessions
// under one fixed incarnation.
func sessionWelcome(inc uint64) func(wire.Hello, int64) wire.Welcome {
	return func(h wire.Hello, _ int64) wire.Welcome {
		sess := h.Session
		if sess == 0 {
			sess = 0xAB
		}
		return wire.Welcome{
			MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 4, Server: "fake",
			Session: sess, Incarnation: inc, DedupWindow: 64,
		}
	}
}

func resultFrame(id uint64, outs ...wire.Output) []byte {
	return wire.AppendResult(nil, id, outs)
}

// TestRetryOnShed: the server sheds twice with a backoff hint, then
// commits; Call must retry through both rejections and return the
// final result.
func TestRetryOnShed(t *testing.T) {
	var calls atomic.Int64
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		if calls.Add(1) <= 2 {
			return wire.AppendError(nil, f.ID, wire.RemoteError{
				Code: wire.CodeShed, Backoff: time.Millisecond, Msg: "busy",
			})
		}
		return resultFrame(f.ID, wire.Output{Name: "x", Vals: []storage.Value{storage.Int(99)}})
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	res, err := cl.Call(context.Background(), "P")
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := res.Val("x").Int(); got != 99 {
		t.Fatalf("x = %d, want 99", got)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two shed + one commit)", got)
	}
}

// TestRetriesExhausted: permanent shedding must eventually surface
// the retryable error rather than spinning forever.
func TestRetriesExhausted(t *testing.T) {
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		return wire.AppendError(nil, f.ID, wire.RemoteError{Code: wire.CodeShed, Msg: "always busy"})
	})
	cl, err := Dial(fs.addr(), Options{RetryAttempts: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	_, err = cl.Call(context.Background(), "P")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeShed {
		t.Fatalf("err = %v, want wrapped CodeShed", err)
	}
}

// TestNonRetryableError: an abort must not be retried.
func TestNonRetryableError(t *testing.T) {
	var calls atomic.Int64
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		calls.Add(1)
		return wire.AppendError(nil, f.ID, wire.RemoteError{Code: wire.CodeAbort, Msg: "no"})
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	_, err = cl.Call(context.Background(), "P")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeAbort {
		t.Fatalf("err = %v, want CodeAbort", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on abort)", got)
	}
}

// TestContextCancellation: a call parked on a silent server must
// return promptly when its context is cancelled, and the client must
// stay usable.
func TestContextCancellation(t *testing.T) {
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		if c.Proc == "Hang" {
			return nil // never answer
		}
		return resultFrame(f.ID)
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Call(ctx, "Hang")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The abandoned slot must have been released: further calls work.
	if _, err := cl.Call(context.Background(), "Quick"); err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
}

// TestCallBatchOutOfOrder: a batch pipelined over one flush must
// match responses by id even when the server answers in reverse.
func TestCallBatchOutOfOrder(t *testing.T) {
	// Frame payloads alias the reader's buffer, so capture the decoded
	// call (stable) rather than the frame.
	type pendingCall struct {
		id  uint64
		arg storage.Value
	}
	var pending []pendingCall
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		pending = append(pending, pendingCall{f.ID, c.Args[0]}) // single conn: handler runs serially
		if len(pending) < 3 {
			return nil
		}
		// Answer in reverse arrival order, echoing the argument back.
		var buf []byte
		for i := len(pending) - 1; i >= 0; i-- {
			buf = wire.AppendResult(buf, pending[i].id, []wire.Output{
				{Name: "echo", Vals: []storage.Value{pending[i].arg}},
			})
		}
		pending = nil
		return buf
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	batch := []Invocation{
		{Proc: "Echo", Args: []storage.Value{storage.Int(10)}},
		{Proc: "Echo", Args: []storage.Value{storage.Int(20)}},
		{Proc: "Echo", Args: []storage.Value{storage.Int(30)}},
	}
	replies := cl.CallBatch(context.Background(), batch)
	for i, r := range replies {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
		want := int64(10 * (i + 1))
		if got := r.Result.Val("echo").Int(); got != want {
			t.Fatalf("batch[%d] echo = %d, want %d", i, got, want)
		}
	}
}

// TestReconnect: a connection killed server-side is replaced on the
// next call.
func TestReconnect(t *testing.T) {
	var nth atomic.Int64
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		if nth.Add(1) == 1 {
			return nil // go silent; we kill the conn below via listener close? No — use a poison response
		}
		return resultFrame(f.ID)
	})
	cl, err := Dial(fs.addr(), Options{RetryAttempts: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// First call: server never answers; cancel it, then break the
	// conn by dropping a garbage frame through it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = cl.Call(ctx, "Silent")
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Kill the underlying socket from the client side to simulate a
	// dropped connection, then verify the pool self-heals.
	cl.mu.Lock()
	for _, cc := range cl.pool {
		if cc != nil {
			if err := cc.close(errors.New("simulated drop")); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Logf("drop: %v", err)
			}
		}
	}
	cl.mu.Unlock()
	if _, err := cl.Call(context.Background(), "Back"); err != nil {
		t.Fatalf("call after drop: %v", err)
	}
	if got := fs.conns.Load(); got < 2 {
		t.Fatalf("server saw %d connections, want ≥ 2 (reconnect)", got)
	}
}

// TestRetryDelayShape pins the backoff curve: exponential from base,
// jittered into [d/2, d], capped at RetryMax even when the shift
// overflows, and floored at the server's hint.
func TestRetryDelayShape(t *testing.T) {
	lowJitter := func(int64) int64 { return 0 }
	highJitter := func(n int64) int64 { return n - 1 }
	base, max := time.Millisecond, 100*time.Millisecond

	// Attempt 1 draws from [base/2, base].
	if d := retryDelay(base, max, 0, 1, lowJitter); d != base/2 {
		t.Fatalf("attempt 1 low jitter = %v, want %v", d, base/2)
	}
	if d := retryDelay(base, max, 0, 1, highJitter); d != base {
		t.Fatalf("attempt 1 high jitter = %v, want %v", d, base)
	}
	// Attempt 4 has tripled twice more: base<<3.
	if d := retryDelay(base, max, 0, 4, highJitter); d != base<<3 {
		t.Fatalf("attempt 4 high jitter = %v, want %v", d, base<<3)
	}
	// Attempt 10 would be 512ms: capped at max.
	if d := retryDelay(base, max, 0, 10, highJitter); d != max {
		t.Fatalf("attempt 10 = %v, want cap %v", d, max)
	}
	// Huge attempt counts must cap cleanly, not overflow the shift.
	for _, attempt := range []int{40, 62, 63, 64, 100} {
		if d := retryDelay(base, max, 0, attempt, highJitter); d != max {
			t.Fatalf("attempt %d high jitter = %v, want cap %v", attempt, d, max)
		}
		if d := retryDelay(base, max, 0, attempt, lowJitter); d != max/2 {
			t.Fatalf("attempt %d low jitter = %v, want %v", attempt, d, max/2)
		}
	}
	// The server hint floors the sleep; a small hint does not shrink it.
	if d := retryDelay(base, max, 50*time.Millisecond, 1, lowJitter); d != 50*time.Millisecond {
		t.Fatalf("hinted delay = %v, want the 50ms floor", d)
	}
	if d := retryDelay(base, max, time.Microsecond, 1, highJitter); d != base {
		t.Fatalf("small hint raised delay to %v, want %v", d, base)
	}
	// Real random draws stay inside the attempt's jitter band.
	lo, hi := (base<<2)/2, base<<2
	for i := 0; i < 1000; i++ {
		if d := retryDelay(base, max, 0, 3, rand.Int63n); d < lo || d > hi {
			t.Fatalf("attempt 3 draw %v outside [%v, %v]", d, lo, hi)
		}
	}
}

// TestTransparentRetrySameSeq: a connection dropped after the call was
// sent must be retried transparently on a fresh connection under the
// SAME sequence number — the client half of exactly-once.
func TestTransparentRetrySameSeq(t *testing.T) {
	var mu sync.Mutex
	var seen []uint64
	fs := newFakeServerW(t, sessionWelcome(0x1111), func(f wire.Frame, c wire.Call) []byte {
		mu.Lock()
		seen = append(seen, c.Seq)
		n := len(seen)
		mu.Unlock()
		if n == 1 {
			return killConn
		}
		return resultFrame(f.ID, wire.Output{Name: "x", Vals: []storage.Value{storage.Int(7)}})
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	res, err := cl.Call(context.Background(), "P")
	if err != nil {
		t.Fatalf("call through dropped conn: %v", err)
	}
	if got := res.Val("x").Int(); got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("server saw %d sends, want 2 (original + retry)", len(seen))
	}
	if seen[0] == 0 || seen[0] != seen[1] {
		t.Fatalf("retry seq %d != original seq %d (or zero)", seen[1], seen[0])
	}
}

// TestBatchNeverSentAtDeadline: a connection dies under a batch, the
// retry of the call that was on it uses up the caller's time, and the
// calls behind it were never written. Those must report that the clock
// ran out — they provably did not execute and nothing failed — not the
// lost connection that merely stopped their window.
func TestBatchNeverSentAtDeadline(t *testing.T) {
	var calls atomic.Int64
	welcome := func(h wire.Hello, _ int64) wire.Welcome {
		w := sessionWelcome(0x2222)(h, 0)
		w.MaxInFlight = 1 // one call per window: the later ones wait their turn
		return w
	}
	fs := newFakeServerW(t, welcome, func(wire.Frame, wire.Call) []byte {
		if calls.Add(1) == 1 {
			return killConn
		}
		return nil // the retry is never answered
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	replies := cl.CallBatch(ctx, []Invocation{{Proc: "P"}, {Proc: "P"}, {Proc: "P"}})
	if err := replies[0].Err; !errors.Is(err, ErrMaybeCommitted) {
		t.Errorf("the call that was sent: %v, want ErrMaybeCommitted", err)
	}
	for i, r := range replies[1:] {
		if !errors.Is(r.Err, context.DeadlineExceeded) || errors.Is(r.Err, ErrMaybeCommitted) {
			t.Errorf("never-sent call %d: %v, want the context's deadline error", i+1, r.Err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d calls, want 2 (the first and its retry)", n)
	}
}

// TestIncarnationChangeSurfacesMaybeCommitted: when the server holding
// an unanswered attempt restarts (new incarnation), the client must
// NOT re-send — the dedup window is gone — and must surface the typed
// ambiguity instead.
func TestIncarnationChangeSurfacesMaybeCommitted(t *testing.T) {
	var calls atomic.Int64
	fs := newFakeServerW(t, func(h wire.Hello, connNo int64) wire.Welcome {
		sess := h.Session
		if sess == 0 {
			sess = 0xAB
		}
		return wire.Welcome{
			MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 4, Server: "fake",
			Session: sess, Incarnation: uint64(connNo), DedupWindow: 64,
		}
	}, func(f wire.Frame, c wire.Call) []byte {
		calls.Add(1)
		return killConn
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	_, err = cl.Call(context.Background(), "P")
	if !errors.Is(err, ErrMaybeCommitted) {
		t.Fatalf("err = %v, want ErrMaybeCommitted", err)
	}
	var mce *MaybeCommittedError
	if !errors.As(err, &mce) || mce.Cause == nil {
		t.Fatalf("err = %v, want *MaybeCommittedError with cause", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d sends, want 1 (no blind re-send across incarnations)", got)
	}
}

// TestDialRefusesSessionlessWelcome: a WELCOME that grants no session,
// or names no incarnation, comes from a peer that is not a THEDB server
// of this protocol. Dial fails with ErrNoSession, sends no call, closes
// the socket (the fake server's connection goroutine sees it end) and
// leaves no goroutine of its own behind.
func TestDialRefusesSessionlessWelcome(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    wire.Welcome
	}{
		{"no session", wire.Welcome{MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 4, Server: "sessionless", Incarnation: 1}},
		{"no incarnation", wire.Welcome{MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 4, Server: "timeless", Session: 0xAB, DedupWindow: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			fs := newFakeServerW(t, func(wire.Hello, int64) wire.Welcome { return tc.w }, func(f wire.Frame, c wire.Call) []byte {
				calls.Add(1)
				return resultFrame(f.ID)
			})
			base := runtime.NumGoroutine()
			cl, err := Dial(fs.addr(), Options{})
			if err == nil {
				_ = cl.Close()
				t.Fatalf("Dial succeeded against a welcome without a session or incarnation")
			}
			if !errors.Is(err, ErrNoSession) {
				t.Fatalf("err = %v, want ErrNoSession", err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, want the %d before Dial: the socket stayed open or a goroutine leaked",
						runtime.NumGoroutine(), base)
				}
			}
			if n := calls.Load(); n != 0 {
				t.Fatalf("server saw %d calls, want 0", n)
			}
		})
	}
}

// TestBudgetPropagation: a context deadline rides the call frame as a
// microsecond budget; no deadline means budget 0.
func TestBudgetPropagation(t *testing.T) {
	var withDeadline, without atomic.Int64
	fs := newFakeServer(t, func(f wire.Frame, c wire.Call) []byte {
		if c.Proc == "Deadline" {
			withDeadline.Store(int64(c.BudgetUS))
		} else {
			without.Store(int64(c.BudgetUS))
		}
		return resultFrame(f.ID)
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, "Deadline"); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := withDeadline.Load(); got <= 0 || got > 500_000 {
		t.Fatalf("budget = %dµs, want in (0, 500000]", got)
	}
	if _, err := cl.Call(context.Background(), "NoDeadline"); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := without.Load(); got != 0 {
		t.Fatalf("budget without deadline = %dµs, want 0", got)
	}
}

// TestSessionReusedAcrossReconnect: every redial presents the token
// minted by the first handshake, so one client is one session.
func TestSessionReusedAcrossReconnect(t *testing.T) {
	var mu sync.Mutex
	var hellos []uint64
	fs := newFakeServerW(t, func(h wire.Hello, connNo int64) wire.Welcome {
		mu.Lock()
		hellos = append(hellos, h.Session)
		mu.Unlock()
		return sessionWelcome(0x2222)(h, connNo)
	}, func(f wire.Frame, c wire.Call) []byte {
		return resultFrame(f.ID)
	})
	cl, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if _, err := cl.Call(context.Background(), "P"); err != nil {
		t.Fatalf("call: %v", err)
	}
	// Break the pooled conn; the next call redials.
	cl.mu.Lock()
	for _, cc := range cl.pool {
		if cc != nil {
			if err := cc.close(errors.New("simulated drop")); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Logf("drop: %v", err)
			}
		}
	}
	cl.mu.Unlock()
	if _, err := cl.Call(context.Background(), "P"); err != nil {
		t.Fatalf("call after drop: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hellos) < 2 {
		t.Fatalf("server saw %d handshakes, want ≥ 2", len(hellos))
	}
	if hellos[0] != 0 {
		t.Fatalf("first hello presented session %#x, want 0 (mint)", hellos[0])
	}
	for _, h := range hellos[1:] {
		if h != 0xAB {
			t.Fatalf("redial presented session %#x, want the minted 0xAB", h)
		}
	}
}

// TestOneReaderPerConnection: the server's first write carries WELCOME
// plus the leading bytes of the next frame. The handshake and the read
// loop must share one buffered reader, or those bytes are lost and the
// stream desynchronises.
func TestOneReaderPerConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		fr := wire.NewReader(nc, wire.DefaultMaxFrame)
		if f, err := fr.Next(); err != nil || f.Op != wire.OpHello {
			return
		}
		resp := resultFrame(0, wire.Output{Name: "v", Vals: []storage.Value{storage.Int(7)}})
		first := wire.AppendWelcome(nil, wire.Welcome{
			MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 4, Server: "eager",
			Session: 0xAB, Incarnation: 1, DedupWindow: 64,
		})
		first = append(first, resp[:4]...) // magic, version, opcode: no request id needed yet
		if _, err := nc.Write(first); err != nil {
			return
		}
		f, err := fr.Next()
		if err != nil {
			return
		}
		wire.SetID(resp, f.ID)
		_, _ = nc.Write(resp[4:])
		_, _ = fr.Next() // hold the connection open until the client hangs up
	}()
	cl, err := Dial(l.Addr().String(), Options{RetryAttempts: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	res, err := cl.Call(context.Background(), "P")
	if err != nil {
		t.Fatalf("call: %v (bytes buffered past WELCOME were lost)", err)
	}
	if got := res.Val("v").Int(); got != 7 {
		t.Fatalf("v = %d, want 7", got)
	}
}

// TestDialClampsAdvertisedWindow: a WELCOME advertising MaxInFlight
// 2^32-1 sizes the connection's slot table at maxWindow, not at what
// the peer asked for, and the connection still serves calls.
func TestDialClampsAdvertisedWindow(t *testing.T) {
	fs := newFakeServerW(t, func(h wire.Hello, connNo int64) wire.Welcome {
		w := sessionWelcome(1)(h, connNo)
		w.MaxInFlight, w.Server = math.MaxUint32, "greedy"
		return w
	}, func(f wire.Frame, c wire.Call) []byte {
		return resultFrame(f.ID, wire.Output{Name: "v", Vals: []storage.Value{storage.Int(1)}})
	})
	cl, err := Dial(fs.addr(), Options{RetryAttempts: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	if cc := cl.pool[0]; len(cc.slots) != maxWindow || len(cc.free) != maxWindow || cc.nfree != maxWindow {
		t.Fatalf("window = %d slots, %d free (nfree %d), want %d", len(cc.slots), len(cc.free), cc.nfree, maxWindow)
	}
	if res, err := cl.Call(context.Background(), "P"); err != nil || res.Val("v").Int() != 1 {
		t.Fatalf("call through the clamped window: %v, %v", res, err)
	}
}

// TestSlotReuseDropsLateResponse: a call abandoned by its context frees
// its slot; the late response to it — which names the same slot under
// an older generation — must be dropped, never handed to the slot's
// next occupant, and must not free the slot a second time.
func TestSlotReuseDropsLateResponse(t *testing.T) {
	echo := func(id uint64, v storage.Value) []byte {
		return resultFrame(id, wire.Output{Name: "echo", Vals: []storage.Value{v}})
	}
	var hangID uint64
	type pendingCall struct {
		id  uint64
		arg storage.Value
	}
	var pending []pendingCall
	fs := newFakeServerW(t, func(h wire.Hello, connNo int64) wire.Welcome {
		w := sessionWelcome(1)(h, connNo)
		w.MaxInFlight, w.Server = 2, "late"
		return w
	}, func(f wire.Frame, c wire.Call) []byte { // one conn: the handler runs serially
		switch c.Proc {
		case "Hang":
			hangID = f.ID
			return nil
		case "Solo":
			return echo(f.ID, c.Args[0])
		}
		if pending = append(pending, pendingCall{f.ID, c.Args[0]}); len(pending) < 2 {
			return nil
		}
		// Both slots are occupied again. Answer late, out of order, and
		// with the stale frame twice.
		stale := echo(hangID, storage.Int(-1))
		buf := append([]byte(nil), stale...)
		buf = append(buf, echo(pending[1].id, pending[1].arg)...)
		buf = append(buf, stale...)
		buf = append(buf, echo(pending[0].id, pending[0].arg)...)
		pending = nil
		return buf
	})
	cl, err := Dial(fs.addr(), Options{RetryAttempts: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, "Hang"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang: err = %v, want deadline exceeded", err)
	}
	for round := int64(0); round < 3; round++ {
		replies := cl.CallBatch(context.Background(), []Invocation{
			{Proc: "Echo", Args: []storage.Value{storage.Int(10 + round)}},
			{Proc: "Echo", Args: []storage.Value{storage.Int(20 + round)}},
		})
		for i, r := range replies {
			if r.Err != nil {
				t.Fatalf("round %d batch[%d]: %v", round, i, r.Err)
			}
			if got, want := r.Result.Val("echo").Int(), int64(10*(i+1))+round; got != want {
				t.Fatalf("round %d batch[%d] echo = %d, want %d (a late response reached the slot's next occupant)", round, i, got, want)
			}
		}
	}
	res, err := cl.Call(context.Background(), "Solo", storage.Int(99))
	if err != nil || res.Val("echo").Int() != 99 {
		t.Fatalf("call after the late responses: %v, %v", res, err)
	}
	cc := cl.pool[0]
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.nfree != len(cc.slots) {
		t.Fatalf("free slots = %d of %d: the window was released twice or leaked", cc.nfree, len(cc.slots))
	}
	seen := map[uint32]bool{}
	for _, i := range cc.free[:cc.nfree] {
		if seen[i] || cc.slots[i].att != nil {
			t.Fatalf("slot %d is on the free stack twice or still occupied", i)
		}
		seen[i] = true
	}
}

// TestSteadyStateAllocations pins what a call costs the client once a
// connection is warm: the attempt it lands in and the three
// allocations of wire.DecodeResult — four for a Call; for a 16-call
// CallBatch the replies, one block of attempts and three per result,
// however many outputs a result carries.
// The fake server here answers from one preencoded frame and allocates
// nothing, so testing.AllocsPerRun (which counts process-wide) sees the
// client alone: the slot words clientConn.occupy, settle and release,
// and wire.Reader.Next and Buffered on the reply stream.
func TestSteadyStateAllocations(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		fr := wire.NewReader(nc, wire.DefaultMaxFrame)
		if f, err := fr.Next(); err != nil || f.Op != wire.OpHello {
			return
		}
		if _, err := nc.Write(wire.AppendWelcome(nil, wire.Welcome{
			MaxFrame: wire.DefaultMaxFrame, MaxInFlight: 64, Server: "quiet",
			Session: 0xAB, Incarnation: 1, DedupWindow: 64,
		})); err != nil {
			return
		}
		resp := resultFrame(0, wire.Output{Name: "v", Vals: []storage.Value{storage.Int(7)}},
			wire.Output{Name: "s", Vals: []storage.Value{storage.Str("payload")}})
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			wire.SetID(resp, f.ID)
			if _, err := nc.Write(resp); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(l.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	ctx := context.Background()
	args := []storage.Value{storage.Int(1), storage.Str("x")}
	batch := make([]Invocation, 16)
	for i := range batch {
		batch[i] = Invocation{Proc: "P", Args: args}
	}
	one := func() {
		if _, err := cl.Call(ctx, "P", args...); err != nil {
			t.Fatal(err)
		}
	}
	sixteen := func() {
		for _, r := range cl.CallBatch(ctx, batch) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	one()
	sixteen() // warm: write buffer grown, waiter pooled
	const maxCall, maxBatch = 4, 2 + 3*16
	n := testing.AllocsPerRun(200, one)
	t.Logf("Call: %v allocs", n)
	if n > maxCall {
		t.Errorf("Call: %v allocs, want <= %d", n, maxCall)
	}
	n = testing.AllocsPerRun(50, sixteen)
	t.Logf("CallBatch(16): %v allocs", n)
	if n > maxBatch {
		t.Errorf("CallBatch(16): %v allocs, want <= %d", n, maxBatch)
	}
}
