package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/server"
	"thedb/internal/wire"
	"thedb/internal/workload/kv"
)

// newKVDB builds a database with internal/workload/kv's table and
// procedures plus the two the network tests add: Slow (sleeps, for
// pipelining tests) and Nope (always aborts). It logs into fs (nil: the
// database is not durable).
func newKVDB(t *testing.T, workers int, fs *thedb.WALSet) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(thedb.Config{
		Protocol: thedb.Healing,
		Workers:  workers,
		WALSet:   fs,
		LogMode:  thedb.ValueLogging,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.MustCreateTable(kv.Schema())
	for _, s := range kv.Specs() {
		db.MustRegister(s)
	}
	db.MustRegister(&thedb.Spec{
		Name:   "Slow",
		Params: []string{"ms"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "sleep",
				ValReads: []string{"ms"},
				Body: func(ctx thedb.OpCtx) error {
					time.Sleep(time.Duration(ctx.Env().Int("ms")) * time.Millisecond)
					return nil
				},
			})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name: "Nope",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name: "abort",
				Body: func(ctx thedb.OpCtx) error {
					return thedb.UserAbort("nope says no")
				},
			})
		},
	})
	return db
}

// startServer starts srv on a loopback listener and returns its
// address. Cleanup shuts the server (and so the database) down.
func startServer(t *testing.T, db *thedb.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	db.Start()
	srv := server.New(db, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// rawDial opens a raw wire connection and completes the handshake,
// returning the socket, a frame reader and the server's welcome.
func rawDial(t *testing.T, addr string) (net.Conn, *wire.Reader, wire.Welcome) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		if err := nc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("close: %v", err)
		}
	})
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Client: "test"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	fr := wire.NewReader(nc, wire.DefaultMaxFrame)
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if f.Op != wire.OpWelcome {
		t.Fatalf("handshake reply op = %s, want WELCOME", wire.OpName(f.Op))
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatalf("decode welcome: %v", err)
	}
	return nc, fr, w
}

func TestCallRoundTrip(t *testing.T) {
	db := newKVDB(t, 2, nil)
	_, addr := startServer(t, db, server.Config{})

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()
	ctx := context.Background()

	if _, err := cl.Call(ctx, "KVPut", thedb.Int(7), thedb.Int(42)); err != nil {
		t.Fatalf("KVPut: %v", err)
	}
	res, err := cl.Call(ctx, "KVGet", thedb.Int(7))
	if err != nil {
		t.Fatalf("KVGet: %v", err)
	}
	if got := res.Val("found").Int(); got != 1 {
		t.Fatalf("found = %d, want 1", got)
	}
	if got := res.Val("val").Int(); got != 42 {
		t.Fatalf("val = %d, want 42", got)
	}

	// Unknown procedure: typed, non-retryable.
	_, err = cl.Call(ctx, "NoSuchProc")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownProc {
		t.Fatalf("unknown proc error = %v, want CodeUnknownProc", err)
	}

	// User abort: typed, non-retryable, carries the reason.
	_, err = cl.Call(ctx, "Nope")
	if !errors.As(err, &re) || re.Code != wire.CodeAbort {
		t.Fatalf("abort error = %v, want CodeAbort", err)
	}
	if re.Retryable() {
		t.Fatalf("abort marked retryable")
	}
}

// TestOutOfOrderPipelining proves responses complete out of order: a
// slow call issued first is answered after a fast call issued second
// on the same connection.
func TestOutOfOrderPipelining(t *testing.T) {
	db := newKVDB(t, 2, nil)
	_, addr := startServer(t, db, server.Config{})

	nc, fr, _ := rawDial(t, addr)
	var buf []byte
	buf = wire.AppendCall(buf, 1, wire.Call{Proc: "Slow", Args: []thedb.Value{thedb.Int(300)}})
	buf = wire.AppendCall(buf, 2, wire.Call{Proc: "KVGet", Args: []thedb.Value{thedb.Int(1)}})
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	first, err := fr.Next()
	if err != nil {
		t.Fatalf("first response: %v", err)
	}
	if first.ID != 2 {
		t.Fatalf("first completed id = %d, want 2 (fast call overtakes slow)", first.ID)
	}
	second, err := fr.Next()
	if err != nil {
		t.Fatalf("second response: %v", err)
	}
	if second.ID != 1 {
		t.Fatalf("second completed id = %d, want 1", second.ID)
	}
}

// TestShedding drives more requests than the admission bounds allow
// and checks the overflow is answered with typed retryable errors
// carrying backoff hints — not queued, not dropped.
func TestShedding(t *testing.T) {
	db := newKVDB(t, 1, nil)
	open := registerBlock(db)
	srv, addr := startServer(t, db, server.Config{})
	t.Cleanup(open)

	nc, fr, w := rawDial(t, addr)
	if w.MaxInFlight != server.PerConnInFlight {
		t.Fatalf("advertised window = %d, want %d", w.MaxInFlight, server.PerConnInFlight)
	}
	var buf []byte
	const total = server.PerConnInFlight + 1
	for id := uint64(1); id <= total; id++ {
		buf = wire.AppendCall(buf, id, wire.Call{Proc: "Block"})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	shed, ok := 0, 0
	for i := 0; i < total; i++ {
		if i == 1 {
			open() // the first answer is the refusal; the rest are executing
		}
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		switch f.Op {
		case wire.OpResult:
			ok++
		case wire.OpError:
			re, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatalf("decode error frame: %v", err)
			}
			if re.Code != wire.CodeShed {
				t.Fatalf("error code = %d (%s), want CodeShed", re.Code, re.Msg)
			}
			if !re.Retryable() {
				t.Fatalf("shed error not retryable")
			}
			if re.Backoff <= 0 {
				t.Fatalf("shed error has no backoff hint")
			}
			shed++
		default:
			t.Fatalf("unexpected op %s", wire.OpName(f.Op))
		}
	}
	if shed != 1 || ok != total-1 {
		t.Fatalf("%d calls: %d shed, %d executed, want 1 and %d", total, shed, ok, total-1)
	}
	if got := srv.Stats().Snapshot().Shed; got != int64(shed) {
		t.Fatalf("stats.Shed = %d, observed %d shed responses", got, shed)
	}
}

// TestBadFrameHandling checks protocol violations get typed errors
// and the connection accounting stays balanced.
func TestBadFrameHandling(t *testing.T) {
	db := newKVDB(t, 1, nil)
	_, addr := startServer(t, db, server.Config{})

	nc, fr, _ := rawDial(t, addr)
	// A HELLO after the handshake is a protocol violation.
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Client: "again"})); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	re, err := wire.DecodeError(f.Payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if re.Code != wire.CodeBadRequest {
		t.Fatalf("code = %d, want CodeBadRequest", re.Code)
	}
	// The connection survives: a normal call still works.
	if _, err := nc.Write(wire.AppendCall(nil, 9, wire.Call{Proc: "KVGet", Args: []thedb.Value{thedb.Int(0)}})); err != nil {
		t.Fatalf("write call: %v", err)
	}
	f, err = fr.Next()
	if err != nil {
		t.Fatalf("call response: %v", err)
	}
	if f.Op != wire.OpResult || f.ID != 9 {
		t.Fatalf("got op=%s id=%d, want RESULT id=9", wire.OpName(f.Op), f.ID)
	}
}

// TestResultCarriesOutputsOnly pins the RESULT encoding: exactly the
// variables the procedure's operations wrote in this run, in name
// order, each once — no argument (named or in the $i tail), and no
// output of a branch that did not run.
func TestResultCarriesOutputsOnly(t *testing.T) {
	db := newKVDB(t, 1, nil)
	db.MustRegister(&thedb.Spec{
		Name:   "Outputs",
		Params: []string{"k"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "w", ValReads: []string{"k", "$1"}, Writes: []string{"zeta", "alpha", "list", "never"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					e.SetInt("zeta", e.Int("k"))
					e.SetInt("alpha", e.Int("$1"))
					e.SetVals("list", []thedb.Value{thedb.Int(1), thedb.Int(2)})
					return nil
				}})
			b.Op(thedb.Op{Name: "again", ValReads: []string{"zeta"}, Writes: []string{"mid"},
				Body: func(ctx thedb.OpCtx) error { ctx.Env().SetInt("mid", ctx.Env().Int("zeta")+1); return nil }})
		},
	})
	_, addr := startServer(t, db, server.Config{})
	nc, fr, _ := rawDialSession(t, addr, 0)
	frame := wire.AppendCall(nil, 1, wire.Call{Proc: "Outputs", Seq: 1, Args: []thedb.Value{thedb.Int(7), thedb.Int(8)}})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	f, err := fr.Next()
	if err != nil || f.Op != wire.OpResult {
		t.Fatalf("frame %+v, err %v", f, err)
	}
	outs, err := wire.DecodeResult(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range outs {
		got = append(got, fmt.Sprintf("%s=%v", o.Name, o.Vals))
	}
	if want := "alpha=[8] list=[1 2] mid=[8] zeta=[7]"; strings.Join(got, " ") != want {
		t.Fatalf("RESULT %q, want %q", strings.Join(got, " "), want)
	}
}
