package server_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/server"
	"thedb/internal/storage"
	"thedb/internal/wire"
)

// TestGracefulDrain is the ISSUE's shutdown acceptance test: several
// clients stream writes mid-pipeline when Shutdown fires. Every
// acknowledged commit must survive into the replayed WAL state; new
// work must be rejected with the typed draining error; and the
// replayed state must contain nothing beyond what was acknowledged or
// legitimately in flight.
func TestGracefulDrain(t *testing.T) {
	const workers = 3
	const clients = 4

	dir := t.TempDir()
	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		t.Fatalf("open wal set: %v", err)
	}
	db := newKVDB(t, workers, fs)
	db.Start()
	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	addr := l.Addr().String()

	// Each client upserts distinct keys (client c owns keys ≡ c mod
	// clients) and records every acknowledged value.
	type ack struct {
		key, val int64
	}
	acked := make([][]ack, clients)
	inflight := make([][]ack, clients) // sent, outcome unknown at stop
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer func() {
				if err := cl.Close(); err != nil && !errors.Is(err, client.ErrClosed) {
					t.Logf("client %d close: %v", c, err)
				}
			}()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := int64(c + i*clients)
				val := int64(1000*c + i)
				inflight[c] = append(inflight[c], ack{key, val})
				_, err := cl.Call(ctx, "KVPut", thedb.Int(key), thedb.Int(val))
				if err != nil {
					// Draining or connection teardown ends the run;
					// anything else is a real failure.
					var re *wire.RemoteError
					if errors.As(err, &re) && re.Code != wire.CodeDraining {
						t.Errorf("client %d: unexpected remote error %v", c, re)
					}
					return
				}
				acked[c] = append(acked[c], ack{key, val})
			}
		}(c)
	}

	// Let the pipeline fill, then drain mid-flight.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	close(stop)
	wg.Wait()
	if shutdownErr != nil {
		t.Fatalf("shutdown: %v", shutdownErr)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// New connections must be refused outright (listener closed).
	if _, err := client.Dial(addr, client.Options{}); err == nil {
		t.Fatalf("dial succeeded after shutdown")
	}

	// Close the drained database as the server process does, boot a
	// fresh one from its WAL directory and check: every acknowledged
	// write is present with its last acked value, and nothing outside
	// the sent set exists.
	if err := errors.Join(db.Close(), fs.Close()); err != nil {
		t.Fatalf("close: %v", err)
	}
	fs2, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		t.Fatalf("reopen wal set: %v", err)
	}
	t.Cleanup(func() { fs2.Close() })
	fresh := newKVDB(t, workers, fs2)
	if _, err := fresh.Boot(thedb.RecoverOptions{}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	tab, okTab := fresh.Table("KV")
	if !okTab {
		t.Fatalf("recovered db has no KV table")
	}

	totalAcked := 0
	for c := 0; c < clients; c++ {
		totalAcked += len(acked[c])
		// The last acked value per key wins (keys are written once
		// here, but keep it general).
		want := map[int64]int64{}
		for _, a := range acked[c] {
			want[a.key] = a.val
		}
		for k, v := range want {
			rec, ok := tab.Peek(thedb.Key(k))
			if !ok || !rec.Visible() {
				t.Fatalf("acked key %d missing after replay", k)
			}
			if got := rec.Tuple()[0].Int(); got != v {
				t.Fatalf("key %d = %d after replay, want %d", k, got, v)
			}
		}
	}
	if totalAcked == 0 {
		t.Fatalf("no transactions acknowledged before shutdown; test proves nothing")
	}

	// Nothing beyond the sent set: every visible key must have been
	// sent by its owning client (acked or in flight at the cut).
	sent := map[int64]int64{}
	for c := 0; c < clients; c++ {
		for _, a := range inflight[c] {
			sent[a.key] = a.val
		}
	}
	visible := 0
	tab.ForEach(func(k thedb.Key, rec *storage.Record) bool {
		if !rec.Visible() {
			return true
		}
		visible++
		want, wasSent := sent[int64(k)]
		if !wasSent {
			t.Errorf("replayed key %d was never sent", k)
		} else if got := rec.Tuple()[0].Int(); got != want {
			t.Errorf("replayed key %d = %d, want %d", k, got, want)
		}
		return true
	})
	if visible < totalAcked {
		t.Fatalf("replayed state has %d rows, fewer than %d acked", visible, totalAcked)
	}
}

// TestDrainingRejection checks an established connection's new calls
// during drain get the typed draining error with a backoff hint.
func TestDrainingRejection(t *testing.T) {
	db := newKVDB(t, 1, nil)
	db.Start()
	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	nc, fr, _ := rawDial(t, l.Addr().String())

	// Park a slow call so the drain overlaps an established, active
	// connection.
	if _, err := nc.Write(wire.AppendCall(nil, 1, wire.Call{Proc: "Slow", Args: []thedb.Value{thedb.Int(400)}})); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Wait until the slow call is admitted so the drain genuinely
	// overlaps an in-flight transaction.
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
	// Give Shutdown a moment to flip the draining flag, then try new
	// work on the live connection.
	time.Sleep(50 * time.Millisecond)
	if _, err := nc.Write(wire.AppendCall(nil, 2, wire.Call{Proc: "KVGet", Args: []thedb.Value{thedb.Int(0)}})); err != nil {
		t.Fatalf("write during drain: %v", err)
	}

	sawDraining, sawSlowResult := false, false
	for i := 0; i < 2; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		switch {
		case f.Op == wire.OpResult && f.ID == 1:
			sawSlowResult = true
		case f.Op == wire.OpError && f.ID == 2:
			re, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				t.Fatalf("decode: %v", derr)
			}
			if re.Code != wire.CodeDraining {
				t.Fatalf("code = %d, want CodeDraining", re.Code)
			}
			if !re.Retryable() || re.Backoff <= 0 {
				t.Fatalf("draining error must be retryable with a hint, got %+v", re)
			}
			sawDraining = true
		default:
			t.Fatalf("unexpected frame op=%s id=%d", wire.OpName(f.Op), f.ID)
		}
	}
	if !sawDraining || !sawSlowResult {
		t.Fatalf("sawDraining=%v sawSlowResult=%v, want both", sawDraining, sawSlowResult)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
