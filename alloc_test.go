package thedb_test

import (
	"testing"

	"thedb"
	"thedb/internal/workload/ycsb"
)

// TestSessionRunAllocations pins the fixed allocation cost of a
// transaction: what Session.Run spends before and after the operation
// bodies run. The program is compiled once, and the transaction frame
// (Txn, read/write set, access cache) and the variables' slot vector
// (proc.Env) belong to the worker, so a null procedure with two integer
// arguments allocates nothing. YCSBRead adds what one point read costs:
// its Element, the read copy and its column mask, and the bookmark and
// access-cache slices.
//
// `make pins` runs this without the race detector, whose runtime may
// add allocations of its own to the count.
func TestSessionRunAllocations(t *testing.T) {
	db, err := thedb.Open(thedb.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(ycsb.Schema())
	if err := ycsb.Populate(db.Catalog(), 64, 8); err != nil {
		t.Fatal(err)
	}
	for _, s := range ycsb.Specs() {
		db.MustRegister(s)
	}
	db.MustRegister(&thedb.Spec{
		Name: "Null",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "null", Body: func(thedb.OpCtx) error { return nil }})
		},
	})
	db.Start()
	defer db.Close()
	sess := db.Session(0)

	for _, c := range []struct {
		proc string
		args []thedb.Value
		max  float64
	}{
		{"Null", []thedb.Value{thedb.Int(1), thedb.Int(2)}, 0},
		{ycsb.ProcRead, []thedb.Value{thedb.Int(7)}, 6},
	} {
		got := testing.AllocsPerRun(500, func() {
			if _, err := sess.Run(c.proc, c.args...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per Run", c.proc, got)
		if got > c.max {
			t.Errorf("%s: %v allocations per Run, want <= %v", c.proc, got, c.max)
		}
	}
}
