package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
	"thedb/internal/workload/zipf"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{19, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99}, {5000000, 99.999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var a, b hist
	for us := int64(1); us <= 10000; us++ {
		h := &a
		if us%2 == 0 {
			h = &b
		}
		h.record(us * 1000)
	}
	a.merge(&b)
	if a.n != 10000 {
		t.Fatalf("merged count %d, want 10000", a.n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 10000 * 1000
		if got := a.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.0f ns, want %.0f within 1%%", q, got, want)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram's median = %v, want 0", got)
	}
	// Every value lands in a bucket whose bounds contain it.
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40} {
		lo, hi := histBounds(histIndex(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns indexed to bucket [%v, %v)", ns, lo, hi)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "txn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "gen", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "session.run", Start: 20, End: 50}, // overlaps gen: counted once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},       // clipped to the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	for _, tot := range spanTotals(spans) {
		if tot.Name == "txn" && (tot.Count != 1 || tot.TotalNS != 100 || tot.SelfNS != 50) {
			t.Errorf("txn total = %+v", tot)
		}
	}
}

func TestTapeDeterminism(t *testing.T) {
	zg := zipf.New(1000, 0.8)
	ycsbHash := func(seed int64) uint64 { return tapeHash(ycsbTape(seed, 0, ycsb.WorkloadSnap, zg, 4096)) }
	tpccHash := func(seed int64) uint64 {
		cfg := fullScale.tpcc
		cfg.Warehouses, cfg.Seed = 4, seed
		g := tpcc.NewGen(cfg, tpcc.StandardMix(), 0)
		tape := make([]request, 4096)
		for i := range tape {
			tape[i] = tpccRequest(g)
		}
		return tapeHash(tape)
	}
	for name, h := range map[string]func(int64) uint64{"ycsb": ycsbHash, "tpcc": tpccHash} {
		if h(1) != h(1) {
			t.Errorf("%s: same seed, different tapes", name)
		}
		if h(1) == h(2) {
			t.Errorf("%s: different seeds, same tape", name)
		}
	}
	a := tapeHash(ycsbTape(1, 0, ycsb.WorkloadA, zg, 4096))
	b := tapeHash(ycsbTape(1, 1, ycsb.WorkloadA, zg, 4096))
	if a == b {
		t.Error("two callers replay the same tape")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, true, "ok"},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 80}, true, "regressed"},
		{"throughput rose", steady, []float64{120, 121, 119, 120, 120}, true, "ok"},
		{"latency rose", steady, []float64{120, 121, 119, 120, 120}, false, "regressed"},
		{"latency fell", steady, []float64{80, 81, 79, 80, 80}, false, "ok"},
		{"too noisy to tell", steady, []float64{70, 130, 100, 85, 115}, true, "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.higher, 0.05); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the code's catalogue
// together: same workloads, same metrics, same units.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}

// smokeParams is a miniature of the real run: small tables, windows of
// 300 ms, everything else — set-up repetitions, checkpoints, tail,
// restart, probes, spans, the correctness gate — as in the real thing.
func smokeParams(t *testing.T) params {
	return params{
		seed: 1, warm: 30 * time.Millisecond, window: 300 * time.Millisecond, slice: 50 * time.Millisecond,
		ckptEvery: 70 * time.Millisecond,
		scale: scale{
			tpcc:    tpcc.Config{DistrictsPerW: 10, CustomersPerDistrict: 30, Items: 300, InitOrdersPerDist: 10},
			records: 2000, theta: 0.8, tail: 200,
		},
		outDir: t.TempDir(),
	}
}

func TestSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(wl, smokeParams(t), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", wl.name, traced, res.Attempted, res.Failed)
			}
			for _, d := range defsFor(traced) {
				v, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", wl.name, traced, d.name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.name, v)
				}
			}
			if traced {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", wl.name, err)
				}
				if wl.net && res.Metrics["net.serving_share"] <= 0 {
					t.Errorf("%s: net.serving_share = %v", wl.name, res.Metrics["net.serving_share"])
				}
				if wl.durable && (res.Metrics["restart_ms"] <= 0 || res.Metrics["wal.syncs_per_s"] <= 0 || res.Metrics["checkpoint.runs"] < 1) {
					t.Errorf("%s: restart_ms %v, wal.syncs_per_s %v, checkpoint.runs %v", wl.name,
						res.Metrics["restart_ms"], res.Metrics["wal.syncs_per_s"], res.Metrics["checkpoint.runs"])
				}
			}
		}
	}
}
