package server_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"thedb/client"
	"thedb/internal/server"
	"thedb/internal/storage"
)

// TestPooledClientRedialsAfterRestart: a pooled client whose server
// fully restarts (new process incarnation, same address) must lazily
// re-dial on the next call and succeed — with no ambiguity error,
// because no call was in flight when the server went down.
func TestPooledClientRedialsAfterRestart(t *testing.T) {
	db1 := newKVDB(t, 2, nil)
	db1.Start()
	srv1 := server.New(db1, server.Config{})
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l1.Addr().String()
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(l1) }()

	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx := context.Background()
	if _, err := cl.Call(ctx, "KVPut", storage.Int(1), storage.Int(10)); err != nil {
		t.Fatalf("put before restart: %v", err)
	}
	// Warm both pooled connections.
	if _, err := cl.Call(ctx, "KVGet", storage.Int(1)); err != nil {
		t.Fatalf("get before restart: %v", err)
	}

	// Full restart: stop the first server, then bring a fresh database
	// and server up on the very same address.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	if err := <-done1; err != nil {
		t.Fatalf("serve: %v", err)
	}

	db2 := newKVDB(t, 2, nil)
	db2.Start()
	srv2 := server.New(db2, server.Config{})
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 50 {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(l2) }()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Shutdown(sctx); err != nil {
			t.Errorf("shutdown 2: %v", err)
		}
		if err := <-done2; err != nil {
			t.Errorf("serve 2: %v", err)
		}
	})

	// Let the idle pooled conns observe the server's FIN. Without
	// this, a call can race the read loop, write into a dying socket
	// and legitimately surface ambiguity — the scenario under test is
	// a client that was idle across the restart.
	time.Sleep(200 * time.Millisecond)

	// Both pooled conns are dead; every call must transparently
	// re-dial. No MaybeCommittedError may surface — nothing was in
	// flight across the restart.
	for i := 0; i < 4; i++ {
		if _, err := cl.Call(ctx, "KVPut", storage.Int(int64(100+i)), storage.Int(int64(i))); err != nil {
			if errors.Is(err, client.ErrMaybeCommitted) {
				t.Fatalf("call %d surfaced ambiguity with no in-flight attempt: %v", i, err)
			}
			t.Fatalf("call %d after restart: %v", i, err)
		}
	}
	res, err := cl.Call(ctx, "KVGet", storage.Int(101))
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if got := res.Val("val").Int(); got != 1 {
		t.Fatalf("val = %d, want 1", got)
	}
}
