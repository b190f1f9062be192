package server_test

import (
	"testing"

	"thedb"
	"thedb/internal/server"
	"thedb/internal/wire"
)

// TestServingAllocations pins what the serving path adds to a call on
// top of the engine: frame in, slot, dedup ring, dispatcher, response
// encoded and queued, frame out. Once the session's dedup ring has
// wrapped — every entry recycled with a response buffer grown to fit —
// the only per-call allocations the path is allowed are a cached
// response buffer that has to grow and the call's string arguments;
// this call has integer arguments and a fixed-size response, so the
// ceiling is 1, for the dedup map's occasional rehash. The engine's own
// cost is measured on a local session and subtracted;
// testing.AllocsPerRun counts process-wide, so the server's goroutines
// are all in the figure, and the test's side of the socket (one
// preencoded frame out, wire.Reader.Next in) allocates nothing.
func TestServingAllocations(t *testing.T) {
	db := newKVDB(t, 1, nil)
	db.MustRegister(&thedb.Spec{
		Name: "Null",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "null", Body: func(thedb.OpCtx) error { return nil }})
		},
	})
	_, addr := startServer(t, db, server.Config{})
	args := []thedb.Value{thedb.Int(1), thedb.Int(2)}

	sess := db.Session(0) // the one dispatcher is idle while this runs
	engine := testing.AllocsPerRun(200, func() {
		if _, err := sess.Run("Null", args...); err != nil {
			t.Fatal(err)
		}
	})

	nc, fr, _ := rawDialSession(t, addr, 0)
	var frame []byte
	seq := uint64(0)
	call := func() {
		seq++
		frame = wire.AppendCall(frame[:0], seq, wire.Call{Proc: "Null", Seq: seq, Args: args})
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		if f, err := fr.Next(); err != nil || f.Op != wire.OpResult || f.ID != seq {
			t.Fatalf("seq %d: frame %+v, err %v", seq, f, err)
		}
	}
	for i := 0; i < server.DedupWindow+32; i++ {
		call() // wrap the ring, grow every buffer on the path
	}
	const serving = 1
	served := testing.AllocsPerRun(200, call)
	t.Logf("engine %v, served %v", engine, served)
	if served > engine+serving {
		t.Errorf("a served call: %v allocs, the engine alone %v: the serving path adds %v, want <= %d",
			served, engine, served-engine, serving)
	}
}
