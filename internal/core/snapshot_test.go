package core

import (
	"errors"
	"fmt"
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// snapEngine extends kvEngine with an in-place update, the op that
// grows version chains when commits cross epoch boundaries.
func snapEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := kvEngine(t, opts)
	e.MustRegister(&proc.Spec{
		Name:   "Upd",
		Params: []string{"k", "v"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "update",
				KeyReads: []string{"k"},
				ValReads: []string{"v"},
				Body: func(ctx proc.OpCtx) error {
					env := ctx.Env()
					return ctx.Write("KV", storage.Key(env.Int("k")),
						[]int{0}, []storage.Value{storage.Int(env.Int("v"))})
				},
			})
		},
	})
	return e
}

// Snapshot reads resolve against the epoch floor: commits from earlier
// epochs are visible, commits from the current epoch are not (they may
// still be mid-install on other workers).
func TestSnapshotReadSeesFloorNotCurrent(t *testing.T) {
	e := snapEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	mustRun(t, w, "Put", storage.Int(1), storage.Int(10))
	mustRun(t, w, "Put", storage.Int(2), storage.Int(20))
	e.epoch.Advance()
	// This epoch's update is above every valid snapshot boundary.
	mustRun(t, w, "Upd", storage.Int(1), storage.Int(100))

	var got int64
	var present bool
	if err := w.TransactSnapshot(func(ctx proc.OpCtx) error {
		row, ok, err := ctx.Read("KV", 1, nil)
		if err != nil {
			return err
		}
		present = ok
		if ok {
			got = row[0].Int()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !present || got != 10 {
		t.Fatalf("snapshot read = (%d, %v), want the pre-epoch image (10, true)", got, present)
	}

	// After the epoch advances past the update, a fresh snapshot sees it.
	e.epoch.Advance()
	env, err := w.RunSnapshot("Get", storage.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("ok") != 1 || env.Int("v") != 100 {
		t.Fatalf("snapshot after advance: ok=%d v=%d, want 100", env.Int("ok"), env.Int("v"))
	}
}

func TestSnapshotScanIsEpochConsistent(t *testing.T) {
	e := snapEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	for k := int64(0); k < 10; k++ {
		mustRun(t, w, "Put", storage.Int(k), storage.Int(100))
	}
	e.epoch.Advance()
	// Same-epoch churn after the boundary: a snapshot must see all
	// hundreds (sum 1000) — never a mix of old and new images.
	mustRun(t, w, "Upd", storage.Int(3), storage.Int(250))
	mustRun(t, w, "Upd", storage.Int(7), storage.Int(-50))

	var sum, rows int64
	if err := w.TransactSnapshot(func(ctx proc.OpCtx) error {
		sum, rows = 0, 0
		return ctx.Scan("KV", 0, ^storage.Key(0), 0, func(_ storage.Key, row storage.Tuple) bool {
			sum += row[0].Int()
			rows++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 10 || sum != 1000 {
		t.Fatalf("snapshot scan = (rows %d, sum %d), want (10, 1000)", rows, sum)
	}
}

func TestSnapshotRejectsWrites(t *testing.T) {
	e := snapEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	mustRun(t, w, "Put", storage.Int(1), storage.Int(10))

	for name, fn := range map[string]func(proc.OpCtx) error{
		"write": func(ctx proc.OpCtx) error {
			return ctx.Write("KV", 1, []int{0}, []storage.Value{storage.Int(9)})
		},
		"insert": func(ctx proc.OpCtx) error {
			return ctx.Insert("KV", 99, storage.Tuple{storage.Int(9)})
		},
		"delete": func(ctx proc.OpCtx) error { return ctx.Delete("KV", 1) },
	} {
		err := w.TransactSnapshot(fn)
		if !errors.Is(err, ErrReadOnlyTxn) {
			t.Errorf("%s in snapshot: err = %v, want ErrReadOnlyTxn", name, err)
		}
	}
}

// Snapshot transactions must never touch the validation machinery:
// whatever they read, they commit — zero heals, zero restarts.
func TestSnapshotCommitsWithZeroValidation(t *testing.T) {
	e := snapEngine(t, Options{Protocol: Healing, Workers: 1})
	w := e.Worker(0)
	for k := int64(0); k < 8; k++ {
		mustRun(t, w, "Put", storage.Int(k), storage.Int(k))
	}
	base := e.LiveMetrics()
	for i := 0; i < 50; i++ {
		if _, err := w.RunSnapshot("GetSum", storage.Int(0), storage.Int(1<<30)); err != nil {
			t.Fatal(err)
		}
		e.epoch.Advance()
		mustRun(t, w, "Upd", storage.Int(int64(i%8)), storage.Int(int64(i)))
	}
	m := e.LiveMetrics()
	if m.SnapshotReads-base.SnapshotReads != 50 {
		t.Fatalf("SnapshotReads grew by %d, want 50", m.SnapshotReads-base.SnapshotReads)
	}
	if m.Heals != base.Heals || m.Restarts != base.Restarts || m.Aborted != base.Aborted {
		t.Fatalf("snapshot run moved validation counters: heals %d->%d restarts %d->%d aborted %d->%d",
			base.Heals, m.Heals, base.Restarts, m.Restarts, base.Aborted, m.Aborted)
	}
	if m.VersionsInstalled == base.VersionsInstalled {
		t.Fatal("epoch-crossing updates installed no versions")
	}
}

// GC torture (ISSUE 10 satellite): no version a pinned snapshot can
// still resolve is reclaimed, and once readers drain the chains shrink
// back to just the in-record image.
func TestSnapshotGCTorture(t *testing.T) {
	e := snapEngine(t, Options{Protocol: Healing, Workers: 2})
	writer := e.Worker(0)
	reader := e.Worker(1)
	mustRun(t, writer, "Put", storage.Int(1), storage.Int(111))
	// Advance past the insert so the snapshot's boundary timestamp
	// (just below the current epoch) covers it.
	e.epoch.Advance()

	tab, _ := e.Catalog().Table("KV")
	rec, ok := tab.Peek(1)
	if !ok {
		t.Fatal("record missing")
	}

	step := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- reader.TransactSnapshot(func(ctx proc.OpCtx) error {
			for range step {
				row, ok, err := ctx.Read("KV", 1, nil)
				if err != nil {
					return err
				}
				if !ok || row[0].Int() != 111 {
					return errors.New("pinned snapshot lost its image")
				}
			}
			return nil
		})
	}()

	// Hammer the record across many epoch boundaries while the snapshot
	// stays pinned; collect aggressively after every round. Sends race
	// against an early reader failure, so bail out through done instead
	// of deadlocking on a receiver that already returned.
	poke := func() {
		select {
		case step <- struct{}{}:
		case err := <-done:
			t.Fatalf("snapshot reader bailed: %v", err)
		}
	}
	poke() // pin established, first read done
	for i := 0; i < 20; i++ {
		e.epoch.Advance()
		mustRun(t, writer, "Upd", storage.Int(1), storage.Int(int64(1000+i)))
		e.gc.CollectVersions()
		poke() // the snapshot must still see 111
	}
	if rec.VersionLen() == 0 {
		t.Fatal("no chain survived while a snapshot was pinned")
	}
	close(step)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Reader drained: the watermark catches up with the epoch floor and
	// the chain prunes to length 1 (the in-record image alone).
	e.epoch.Advance()
	for i := 0; rec.VersionLen() > 0 && i < 3; i++ {
		e.gc.CollectVersions()
	}
	if n := rec.VersionLen(); n != 0 {
		t.Fatalf("chain still holds %d superseded images after readers drained", n)
	}
	if e.gc.VersionsReclaimed() == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if got := e.LiveMetrics().MVCCVersionsReclaimed; got == 0 {
		t.Fatal("MVCCVersionsReclaimed metric not wired")
	}
	// The live image is still the newest write.
	env, err := reader.RunSnapshot("Get", storage.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("v") != 1019 {
		t.Fatalf("post-drain snapshot v = %d, want 1019", env.Int("v"))
	}
}

func mustRun(t *testing.T, w *Worker, proc string, args ...storage.Value) {
	t.Helper()
	if _, err := w.Run(proc, args...); err != nil {
		t.Fatalf("%s: %v", proc, err)
	}
}

// A snapshot secondary scan would walk the index as of now: a row
// re-keyed out of [lo, hi] after the snapshot is unreachable from the
// range, though the snapshot still sees it inside. The scan refuses
// with ErrSnapshotSecondaryScan instead of answering without it.
func TestSnapshotScanSecRefusesReKeyedRange(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name:    "PEOPLE",
		Columns: []storage.ColumnDef{{Name: "name", Kind: storage.KindString}},
		Secondaries: []storage.SecondaryDef{{
			Name: "by_name",
			Key: func(pk storage.Key, t storage.Tuple) string {
				return fmt.Sprintf("%s|%016x", t[0].Str(), uint64(pk))
			},
		}},
	})
	people, _ := cat.Table("PEOPLE")
	people.Put(1, storage.Tuple{storage.Str("smith")}, 0)
	people.Put(2, storage.Tuple{storage.Str("smith")}, 0)
	e := NewEngine(cat, Options{Protocol: Healing, Workers: 2})
	reader, writer := e.Worker(0), e.Worker(1)

	err := reader.TransactSnapshot(func(ctx proc.OpCtx) error {
		if err := writer.Transact(func(ctx proc.OpCtx) error {
			return ctx.Write("PEOPLE", 1, []int{0}, []storage.Value{storage.Str("jones")})
		}); err != nil {
			t.Fatalf("re-key: %v", err)
		}
		if row, ok, err := ctx.Read("PEOPLE", 1, nil); err != nil || !ok || row[0].Str() != "smith" {
			t.Fatalf("snapshot read of the re-keyed row = %v, %v, %v; want smith", row, ok, err)
		}
		var pks []storage.Key
		err := ctx.ScanSec("PEOPLE", "by_name", "smith|", "smith|\xff", 0, func(pk storage.Key, _ storage.Tuple) bool {
			pks = append(pks, pk)
			return true
		})
		if !errors.Is(err, ErrSnapshotSecondaryScan) {
			t.Fatalf("snapshot ScanSec after a re-key out of range: rows %v, err %v; want ErrSnapshotSecondaryScan", pks, err)
		}
		if err := ctx.ScanSec("PEOPLE", "no_such_index", "", "\xff", 0, nil); err == nil || errors.Is(err, ErrSnapshotSecondaryScan) {
			t.Fatalf("snapshot ScanSec on a missing index: err %v, want the missing-index error", err)
		}
		return err
	})
	if !errors.Is(err, ErrSnapshotSecondaryScan) {
		t.Fatalf("TransactSnapshot: err %v, want ErrSnapshotSecondaryScan", err)
	}
}

// BenchmarkSnapshotScan measures the snapshot scan alone: one
// RunSnapshot of a 1,000-row GetSum, reported per row scanned.
func BenchmarkSnapshotScan(b *testing.B) {
	const rows = 1000
	e := kvEngine(b, Options{Protocol: Healing, Workers: 1})
	kv, _ := e.catalog.Table("KV")
	for k := storage.Key(0); k < rows; k++ {
		kv.Put(k, storage.Tuple{storage.Int(int64(k))}, 0)
	}
	w := e.Worker(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := w.RunSnapshot("GetSum", storage.Int(0), storage.Int(rows-1))
		if err != nil {
			b.Fatal(err)
		}
		if n := env.Int("count"); n != rows {
			b.Fatalf("scanned %d rows, want %d", n, rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkScan is BenchmarkSnapshotScan's validated counterpart: one
// Run of the same 1,000-row GetSum under OCC and under Healing (read
// phase, validation of every row and leaf, commit), per row scanned.
func BenchmarkScan(b *testing.B) {
	const rows = 1000
	for _, p := range []Protocol{OCC, Healing} {
		b.Run(p.String(), func(b *testing.B) {
			e := kvEngine(b, Options{Protocol: p, Workers: 1})
			kv, _ := e.catalog.Table("KV")
			for k := storage.Key(0); k < rows; k++ {
				kv.Put(k, storage.Tuple{storage.Int(int64(k))}, 0)
			}
			w := e.Worker(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env, err := w.Run("GetSum", storage.Int(0), storage.Int(rows-1))
				if err != nil {
					b.Fatal(err)
				}
				if n := env.Int("count"); n != rows {
					b.Fatalf("scanned %d rows, want %d", n, rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
