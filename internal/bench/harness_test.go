package bench

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"thedb/internal/core"
	"thedb/internal/obs"
	"thedb/internal/workload/tpcc"
)

// cellOpts sizes the test cells: two workers, a short window.
func cellOpts(d time.Duration) Opts { return Opts{Workers: 2, Duration: d} }

// TestRunTPCCAllSystems smoke-tests every engine configuration the
// experiments use: each must commit transactions and stay silent.
func TestRunTPCCAllSystems(t *testing.T) {
	for _, sys := range Systems {
		t.Run(sys.String(), func(t *testing.T) {
			res := cellOpts(80 * time.Millisecond).tpcc(2).run(sys)
			if res.agg.Committed == 0 {
				t.Fatalf("%s committed nothing", sys)
			}
		})
	}
}

// TestSystemsInPaperOrder pins the nine labels the tables print, in
// the order the paper introduces the systems, and that THEDB-W is the
// healing protocol under the reversed validation order (Appendix G).
func TestSystemsInPaperOrder(t *testing.T) {
	want := []string{
		"THEDB", "THEDB-OCC", "THEDB-SILO", "THEDB-2PL", "THEDB-HYBRID", "THEDB-DT",
		"THEDB-OCC-", "THEDB-SILO-", "THEDB-W",
	}
	if got := systemNames(Systems); !slices.Equal(got, want) {
		t.Fatalf("systems = %v, want %v", got, want)
	}
	if w := Systems[len(Systems)-1]; w.Protocol != core.Healing || w.Order != core.ReverseTreeOrder {
		t.Fatalf("THEDB-W = %+v, want Healing under ReverseTreeOrder", w)
	}
}

func TestRunTPCCOptionsPaths(t *testing.T) {
	base := cellOpts(60 * time.Millisecond).tpcc(2)

	t.Run("detailed", func(t *testing.T) {
		c := base
		c.detailed = true
		res := c.run(occ)
		var total int64
		for p := range res.agg.PhaseNS {
			total += res.agg.PhaseNS[p]
		}
		if total == 0 {
			t.Fatal("detailed metrics recorded no phase time")
		}
	})
	t.Run("adhoc", func(t *testing.T) {
		c := base
		c.adhocPct = 100
		if res := c.run(thedb); res.agg.Committed == 0 {
			t.Fatal("no commits with 100% ad-hoc")
		}
	})
	t.Run("ablation", func(t *testing.T) {
		c := base
		c.noAccessCache, c.noReadCopies = true, true
		if res := c.run(thedb); res.agg.Committed == 0 {
			t.Fatal("no commits under ablation")
		}
	})
	t.Run("logging", func(t *testing.T) {
		c := base
		c.logging = true
		if res := c.run(thedb); res.agg.Committed == 0 {
			t.Fatal("no commits with logging")
		}
	})
	t.Run("procOnly", func(t *testing.T) {
		c := base
		c.procOnly = tpcc.ProcNewOrder
		res := c.run(thedb)
		for p := range res.perProc {
			if p != tpcc.ProcNewOrder {
				t.Fatalf("sampled %s despite procOnly", p)
			}
		}
	})
}

func TestRunSmallbank(t *testing.T) {
	for _, sys := range of(core.Healing, core.OCC, core.Silo) {
		res := cellOpts(60 * time.Millisecond).cell(smallbankLoad(0.9)).run(sys)
		if res.agg.Committed == 0 {
			t.Fatalf("%s committed nothing", sys)
		}
		if res.latency().Len() == 0 {
			t.Fatalf("%s recorded no latencies", sys)
		}
	}
}

// TestObsFollowsRunningCell is thedb-bench -obs.addr: while a cell
// runs, /metrics serves that cell's engine, and between cells it
// serves thedb_up alone.
func TestObsFollowsRunningCell(t *testing.T) {
	srv, err := obs.StartServer("127.0.0.1:0", obs.Handler(ObsSources()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// committed scrapes /metrics for thedb_committed_total.
	committed := func() (int64, bool) {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "thedb_committed_total "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n, true
			}
		}
		return 0, false
	}
	if n, ok := committed(); ok {
		t.Fatalf("before any cell, /metrics serves thedb_committed_total %d", n)
	}

	done := make(chan result, 1)
	go func() { done <- cellOpts(500 * time.Millisecond).cell(smallbankLoad(0.5)).run(thedb) }()
	var seen int64
	for seen == 0 {
		select {
		case res := <-done:
			t.Fatalf("the cell ended with %d commits before a scrape saw one", res.agg.Committed)
		case <-time.After(10 * time.Millisecond):
		}
		seen, _ = committed()
	}
	if res := <-done; seen > res.agg.Committed {
		t.Fatalf("mid-cell scrape read %d commits, more than the cell's %d", seen, res.agg.Committed)
	}
	if n, ok := committed(); ok {
		t.Fatalf("after the cell, /metrics still serves thedb_committed_total %d", n)
	}
}

func TestSamplerStats(t *testing.T) {
	s := &Sampler{}
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if p := s.Percentile(95); p < 90 || p > 100 {
		t.Fatalf("p95 = %f", p)
	}
	if sh := s.Share(1, 51); sh < 0.45 || sh > 0.55 {
		t.Fatalf("share = %f", sh)
	}
	o := &Sampler{}
	o.Merge(s)
	if o.Len() != 100 {
		t.Fatalf("merged len = %d", o.Len())
	}
}

// TestLatencyBucketsCoverEverySample: tab1's and tab5's columns sum
// to 100% even when samples fall below the paper's first edge.
func TestLatencyBucketsCoverEverySample(t *testing.T) {
	s := &Sampler{}
	for _, us := range []float64{0, 1, 100, 319, 320, 1000, 5e4, 1e7} {
		s.Observe(us)
	}
	for _, buckets := range [][][2]float64{newOrderBuckets, deliveryBuckets} {
		sum := 0.0
		for _, v := range bucketShares(buckets, s) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("buckets %v: shares sum to %.1f%%, want 100%%", buckets, 100*sum)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig8", "fig9", "fig10", "fig11", "fig12", "tab1", "fig13",
		"tab2", "fig14", "fig15", "tab3", "tab4", "fig16", "fig17", "fig18",
		"tab5", "fig19", "fig20", "tab6", "xinterleave",
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], id)
		}
	}
}

// TestRunRefusesUnknownFirst: an unknown ID anywhere in the list is
// refused before any experiment prints, and a known one runs.
func TestRunRefusesUnknownFirst(t *testing.T) {
	var out bytes.Buffer
	if err := Run(Opts{Out: &out}, "fig15", "nope"); err == nil {
		t.Fatal("Run accepted an unknown id")
	}
	if out.Len() != 0 {
		t.Fatalf("Run printed before refusing:\n%s", out.String())
	}
	if err := Run(Opts{Out: &out}, "fig15"); err != nil || !strings.HasPrefix(out.String(), "== fig15:") {
		t.Fatalf("Run(fig15) = %v, printed %q", err, out.String())
	}
}
