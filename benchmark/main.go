// Command benchmark is the database's one benchmark: a single-process,
// closed-loop driver that runs five named workloads against the public
// entry points (thedb.DB and Session, client.Client → server.Server over
// loopback, the checkpoint FileSet, the wire codec), checks that what
// comes back is correct, and prints every metric by name with its unit.
// README.md is the catalogue; BENCHMARK.json is the contract.
//
//	benchmark/run.sh                                  all workloads, end-to-end metrics
//	benchmark/run.sh -trace 1                         ... plus the traced pass and per-layer metrics
//	benchmark/run.sh -runs 5 -o a.json                five seeds per workload, results to a.json
//	benchmark/run.sh -compare a.json b.json           verdict per (workload, end-to-end metric)
//	benchmark/run.sh --workload tpcc-hot --seed 3 --seconds 20 --trace 0
//
// The last form is the driver's: one workload, one JSON object as the
// last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	warmup    = 3 * time.Second
	slice     = time.Second
	ckptEvery = 3 * time.Second

	// A traced run splits its --seconds between an untraced reference
	// window, the traced window and the layer probes.
	tracedWindowShare = 0.35
	probeShare        = 0.05

	// setupReps: set-up is timed this many times per untraced run and
	// the median reported. One set-up is 70-350 ms of mostly allocation,
	// and single ones differ by a fifth.
	setupReps = 9
)

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Slices    []float64          `json:"slice_txn_per_s"` // the window's per-slice throughput series
	TraceFile string             `json:"trace_file,omitempty"`
}

// runOne runs one workload once: untraced for the end-to-end metrics,
// or (traced) an untraced reference pass with layer probes followed by
// a traced pass, for the per-layer metrics.
func runOne(wl *workload, p params, traced bool) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: p.seed, Traced: traced}
	count := func(ps *pass) {
		res.Attempted += ps.win.attempted
		res.Failed += ps.win.failed
	}
	if !traced {
		ps, err := runPass(wl, p, false, setupReps)
		if err != nil {
			return res, err
		}
		count(ps)
		res.Metrics = endToEnd(ps)
		res.Slices = ps.sliceRates()
		return res, ps.finish()
	}

	probeDur := time.Duration(float64(p.window) * probeShare)
	p.window = time.Duration(float64(p.window)*tracedWindowShare) / p.slice * p.slice
	if p.window < p.slice {
		p.window = p.slice
	}
	ref, err := runPass(wl, p, false, 1)
	if err != nil {
		return res, err
	}
	count(ref)
	pr, err := ref.runProbes(probeDur)
	if err = errors.Join(err, ref.finish()); err != nil {
		return res, err
	}
	tr, err := runPass(wl, p, true, 1)
	if err != nil {
		return res, err
	}
	count(tr)
	if err := tr.finish(); err != nil {
		return res, err
	}
	if res.TraceFile, err = writeTrace(p.outDir, wl.name, tr.e.tr.spans()); err != nil {
		return res, err
	}
	res.Metrics = perLayer(ref, tr, pr)
	res.Slices = tr.sliceRates()
	return res, nil
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerDefs
	}
	return endToEndDefs
}

func (r *runResult) print() {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s  seed %d  %s  attempted %d  failed %d\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	for _, d := range defsFor(r.Traced) {
		fmt.Printf("  %-36s %16.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Printf("  txn/s per slice: %.0f\n", r.Slices)
	if r.TraceFile != "" {
		fmt.Printf("  spans: %s\n", r.TraceFile)
	}
}

// driverLine is the one JSON object the driver reads.
func (r *runResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defsFor(r.Traced) {
		if v, ok := r.Metrics[d.name]; ok {
			out.Metrics[d.name] = mv{v, d.unit}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

// provenance says where a result file's numbers came from.
type provenance struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Callers    int     `json:"callers"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	SliceS     float64 `json:"slice_s"`
	When       string  `json:"when"`
}

func gitCommit() string {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return commit
}

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

// outDir places the benchmark's files under its own directory whether
// it is started from the repository root or from benchmark/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload and print the driver's JSON line (default: all five)")
	seed := flag.Int64("seed", 1, "seed of every request generator and of the TPC-C loader")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: end-to-end metrics")
	runs := flag.Int("runs", 1, "suite mode: runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("o", "", "suite mode: result file (default <out>/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if callers > runtime.NumCPU() {
		fatal(fmt.Errorf("%d callers and connections on %d CPUs: the benchmark needs nproc >= %d", callers, runtime.NumCPU(), callers))
	}
	if *seconds < 1 || *runs < 1 || *trace < 0 || *trace > 1 {
		fatal(errors.New("-seconds and -runs must be at least 1, -trace 0 or 1"))
	}
	p := params{
		seed: *seed, warm: warmup, window: time.Duration(*seconds) * time.Second, slice: slice,
		ckptEvery: ckptEvery, scale: fullScale, outDir: outDir(),
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		fatal(err)
	}

	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runOne(wl, p, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
			fmt.Println(res.driverLine())
			os.Exit(1)
		}
		res.Correct = true
		res.print()
		fmt.Println(res.driverLine())
		return
	}

	file := resultFile{Provenance: provenance{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Callers: callers,
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: *seed, Runs: *runs,
		WarmupS: warmup.Seconds(), WindowS: p.window.Seconds(), SliceS: slice.Seconds(),
		When: time.Now().UTC().Format(time.RFC3339),
	}}
	var failed error
	for i := range workloads {
		for r := 0; r < *runs; r++ {
			p.seed = *seed + int64(r)
			for _, traced := range []bool{false, true}[:1+*trace] {
				res, err := runOne(&workloads[i], p, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s FAILED: %v\n", workloads[i].name, err)
					failed = errors.Join(failed, err)
				}
				res.Correct = err == nil
				res.print()
				file.Runs = append(file.Runs, res)
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(p.outDir, "result.json")
	}
	buf, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("results:", path)
	if failed != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
