package thedb_test

import (
	"testing"

	"thedb"
	"thedb/internal/workload/ycsb"
)

// TestSessionRunAllocations pins the fixed allocation cost of a
// transaction: what Session.Run spends before and after the operation
// bodies run. The program is compiled once, and the transaction frame
// (Txn, read/write set, access cache, the first 16 elements and their
// bookmark, read-copy and write buffers) and the variables' slot vector
// (proc.Env) belong to the worker, so a null procedure with two integer
// arguments allocates nothing. YCSBRead adds what one point read costs:
// its access-cache entry. YCSBUpdate adds its body's column and value
// slices and the row image commit installs. Read17 reads 17 records, one
// past the frame: the 17th element and its read copy come from the heap,
// the set promotes to its map (kept, cleared, across attempts) and the
// access cache grows by doubling.
//
// `make pins` runs this without the race detector, whose runtime may
// add allocations of its own to the count.
func TestSessionRunAllocations(t *testing.T) {
	db := ycsbDB(t, 64)
	db.MustRegister(&thedb.Spec{
		Name: "Null",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "null", Body: func(thedb.OpCtx) error { return nil }})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name: "Read17",
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{Name: "read", Body: func(ctx thedb.OpCtx) error {
				for k := thedb.Key(0); k < 17; k++ {
					if _, _, err := ctx.Read(ycsb.TabUser, k, nil); err != nil {
						return err
					}
				}
				return nil
			}})
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
		{ycsb.ProcRead, []thedb.Value{thedb.Int(7)}, 1},
		{ycsb.ProcUpdate, []thedb.Value{thedb.Int(7), thedb.Int(3), thedb.Str("v")}, 4},
		{"Read17", nil, 9},
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

// TestSessionRunSnapshotAllocations pins the cost of a snapshot scan:
// it walks the index a leaf at a time and records no leaf observations,
// so YCSBSnapshotScan allocates the same small count whether it reads
// 64 rows or 4,000.
func TestSessionRunSnapshotAllocations(t *testing.T) {
	db := ycsbDB(t, 4000)
	db.Start()
	defer db.Close()
	sess := db.Session(0)

	var counts []float64
	for _, rows := range []int64{64, 1000, 4000} {
		got := testing.AllocsPerRun(100, func() {
			env, err := sess.RunSnapshot(ycsb.ProcSnapScan, thedb.Int(0), thedb.Int(rows))
			if err != nil {
				t.Fatal(err)
			}
			if n := env.Int("rows"); n != rows {
				t.Fatalf("%d-row scan read %d rows", rows, n)
			}
		})
		t.Logf("%d rows: %v allocations per RunSnapshot", rows, got)
		if got > 3 {
			t.Errorf("%d rows: %v allocations per RunSnapshot, want <= 3", rows, got)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocations grow with the rows scanned: %v for 64 / 1,000 / 4,000 rows", counts)
	}
}

// ycsbDB opens a one-worker database holding the YCSB table with rows
// records and the YCSB procedures registered, not yet started.
func ycsbDB(t *testing.T, rows int) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(thedb.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(ycsb.Schema())
	if err := ycsb.Populate(db.Catalog(), rows, 8); err != nil {
		t.Fatal(err)
	}
	for _, s := range ycsb.Specs() {
		db.MustRegister(s)
	}
	return db
}
