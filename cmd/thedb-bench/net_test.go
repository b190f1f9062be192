package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"thedb"
	"thedb/internal/server"
	"thedb/internal/workload/ycsb"
)

// TestNetBench drives the load generator at an in-process YCSB server
// over loopback: the update mix and the snapshot mix must both get
// answers with nothing failed, and a mix it does not know is refused
// before any connection is made.
func TestNetBench(t *testing.T) {
	const records = 2000
	db, err := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(ycsb.Schema())
	for _, s := range ycsb.Specs() {
		db.MustRegister(s)
	}
	if err := ycsb.Populate(db.Catalog(), records, 8); err != nil {
		t.Fatal(err)
	}
	db.Start()
	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	o := netOpts{addr: l.Addr().String(), clients: 2, conns: 2, records: records, duration: 300 * time.Millisecond}
	for _, mix := range []string{"a", "snap"} {
		o.mix = mix
		c, err := netBench(o)
		if err != nil {
			t.Fatalf("mix %s: %v", mix, err)
		}
		if c.committed == 0 || c.failed != 0 {
			t.Errorf("mix %s: committed %d, failed %d", mix, c.committed, c.failed)
		}
		if (c.snapReads > 0) != (mix == "snap") {
			t.Errorf("mix %s: %d snapshot reads", mix, c.snapReads)
		}
	}

	// Nothing listens on port 1: only a refusal before dialing passes.
	o.addr, o.mix = "127.0.0.1:1", "z"
	if _, err := netBench(o); err == nil || !strings.Contains(err.Error(), "unknown -net.mix") {
		t.Errorf("unknown mix: err = %v", err)
	}
}
