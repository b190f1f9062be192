package storage_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"thedb/internal/storage"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
)

// imageDigest hashes a loaded catalog the way a serial load defines
// it: table by table, each table's records in lock-order address
// order, each as (key, timestamp, visibility, tuple). Two loads digest
// alike iff they hold the same rows and every table's addresses rank
// its rows alike.
func imageDigest(cat *storage.Catalog) string {
	h := sha256.New()
	var b []byte
	for _, tab := range cat.Tables() {
		var recs []*storage.Record
		tab.ForEach(func(_ storage.Key, r *storage.Record) bool {
			recs = append(recs, r)
			return true
		})
		sort.Slice(recs, func(i, j int) bool { return recs[i].Addr() < recs[j].Addr() })
		b = binary.AppendUvarint(b[:0], uint64(len(recs)))
		for _, r := range recs {
			ts, tuple, vis := r.StableSnapshot()
			b = binary.AppendUvarint(b, uint64(r.Key()))
			b = binary.AppendUvarint(b, ts)
			if vis {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = storage.AppendValues(b, tuple)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func catalogOf(schemas ...storage.Schema) *storage.Catalog {
	cat := storage.NewCatalog()
	for _, s := range schemas {
		cat.MustCreateTable(s)
	}
	return cat
}

// withProcs runs f at GOMAXPROCS procs, which sizes the installer.
func withProcs(t *testing.T, procs int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f(t)
	})
}

// TestInstallerMatchesSerialLoad: the three workload loaders, run
// through the Installer at GOMAXPROCS 1, 2 and 8, build the image a
// plain serial Put loop over the same rows builds — same rows, same
// timestamps, same relative address order per table. The digests were
// taken from the loaders when they were serial Put loops; a loader
// that changes its rows on purpose changes them here.
func TestInstallerMatchesSerialLoad(t *testing.T) {
	tpccScale := func(w int) tpcc.Config {
		return tpcc.Config{Warehouses: w, DistrictsPerW: 4, CustomersPerDistrict: 40, Items: 100, InitOrdersPerDist: 20, Seed: 7}
	}
	loads := []struct {
		name    string
		schemas []storage.Schema
		load    func(*storage.Catalog) error
		serial  string
	}{
		{"tpcc-1", tpcc.Schemas(0), func(c *storage.Catalog) error { return tpcc.Populate(c, tpccScale(1)) }, "1e525e329f206eff"},
		{"tpcc-2", tpcc.Schemas(0), func(c *storage.Catalog) error { return tpcc.Populate(c, tpccScale(2)) }, "4854851aa450ebe1"},
		{"ycsb", []storage.Schema{ycsb.Schema()}, func(c *storage.Catalog) error { return ycsb.Populate(c, 5000, 8) }, "7274515560ae54aa"},
		{"smallbank", smallbank.Schemas(), func(c *storage.Catalog) error { return smallbank.Populate(c, 2000, 1000, 1000) }, "93f94c5b00d6dd88"},
	}
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func(t *testing.T) {
			for _, l := range loads {
				cat := catalogOf(l.schemas...)
				if err := l.load(cat); err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				if got := imageDigest(cat); got != l.serial {
					t.Errorf("%s: image digest %s, the serial load's is %s", l.name, got, l.serial)
				}
			}
		})
	}
}

// TestInstallerMatchesPutLoop: a producer much faster than the
// installers, so batches queue and install side by side, against a
// Put loop over the same rows.
func TestInstallerMatchesPutLoop(t *testing.T) {
	schemas := []storage.Schema{
		{Name: "A", Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}, Ordered: true},
		{Name: "B", Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}},
	}
	const n = 20000
	rows := func(put func(tab *storage.Table, k storage.Key, tu storage.Tuple, ts uint64), cat *storage.Catalog) {
		a, b := cat.Tables()[0], cat.Tables()[1]
		for i := 0; i < n; i++ {
			put(a, storage.Key(n-i), storage.Tuple{storage.Int(int64(i))}, uint64(i))
			if i%3 == 0 {
				put(b, storage.Key(i), storage.Tuple{storage.Int(int64(-i))}, 1)
			}
		}
	}
	serial := catalogOf(schemas...)
	rows(func(tab *storage.Table, k storage.Key, tu storage.Tuple, ts uint64) { tab.Put(k, tu, ts) }, serial)
	want := imageDigest(serial)
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func(t *testing.T) {
			cat := catalogOf(schemas...)
			ins := storage.NewInstaller()
			rows(ins.Put, cat)
			if err := ins.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := imageDigest(cat); got != want {
				t.Fatalf("image digest %s, the Put loop's is %s", got, want)
			}
		})
	}
}

// TestInstallerRefusesRepeatedKey: a (table, key) installed twice in
// one install, or one the table already holds, fails Wait.
func TestInstallerRefusesRepeatedKey(t *testing.T) {
	schema := storage.Schema{Name: "KV", Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}}
	for _, held := range []bool{false, true} {
		cat := catalogOf(schema)
		tab := cat.Tables()[0]
		if held {
			tab.Put(700, storage.Tuple{storage.Int(0)}, 0)
		}
		ins := storage.NewInstaller()
		for k := 0; k < 1000; k++ {
			ins.Put(tab, storage.Key(k), storage.Tuple{storage.Int(int64(k))}, 0)
		}
		if !held {
			ins.Put(tab, 700, storage.Tuple{storage.Int(1)}, 0)
		}
		err := ins.Wait()
		if err == nil || !strings.Contains(err.Error(), "key 700 installed twice") {
			t.Errorf("held=%v: Wait = %v, want a repeated-key error naming key 700", held, err)
		}
		if tab.Len() != 1000 {
			t.Errorf("held=%v: table holds %d rows, want 1000", held, tab.Len())
		}
	}
}
