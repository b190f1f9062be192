package bench

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/core"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/zipf"
)

// System is one compared system of the evaluation (paper §5): the one
// engine under a protocol and a validation order. The zero Order is
// the protocol's default.
type System struct {
	Protocol core.Protocol
	Order    core.OrderMode
}

// String names the system as the paper does: the protocol's name, and
// Appendix G's "-W" for the reversed validation order.
func (s System) String() string {
	if s.Order == core.ReverseTreeOrder {
		return s.Protocol.String() + "-W"
	}
	return s.Protocol.String()
}

// of lists the systems that run the protocols in their default order.
func of(ps ...core.Protocol) []System {
	out := make([]System, len(ps))
	for i, p := range ps {
		out[i] = System{Protocol: p}
	}
	return out
}

var (
	thedb  = System{Protocol: core.Healing}
	occ    = System{Protocol: core.OCC}
	thedbW = System{Protocol: core.Healing, Order: core.ReverseTreeOrder}

	// Systems lists every compared system in the order the paper
	// introduces them: §5's six (Fig. 10's legend), Fig. 8's
	// validation-free peak probes, then Appendix G's THEDB-W.
	Systems = append(of(core.Healing, core.OCC, core.Silo, core.TPL, core.Hybrid, core.DT,
		core.OCCNoValidate, core.SiloNoValidate), thedbW)
)

// Opts are the global experiment knobs shared by all runners.
type Opts struct {
	// Workers stands in for the paper's core count.
	Workers int
	// Duration is the measured window per cell.
	Duration time.Duration
	// Out receives the printed tables.
	Out io.Writer
	// Quick shrinks sweeps for smoke runs.
	Quick bool
}

// Defaults fills unset fields.
func (o *Opts) Defaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Duration <= 0 {
		o.Duration = 400 * time.Millisecond
	}
}

// cellEngine is the running cell's engine, nil between cells.
// ObsSources serves its live metrics, so one exposition endpoint
// follows the engines the runners build and tear down per cell.
var cellEngine atomic.Pointer[core.Engine]

// ObsSources is the exposition plane of a harness run (thedb-bench
// -obs.addr): /metrics shows the running cell's engine, and thedb_up
// alone between cells.
func ObsSources() obs.Sources {
	return obs.Sources{Live: func() *metrics.Aggregate {
		if eng := cellEngine.Load(); eng != nil {
			return eng.LiveMetrics()
		}
		return nil
	}}
}

// workload is what a cell drives: a schema, the rows it starts with,
// its procedures (built afresh for each engine) and each worker's
// stream of calls.
type workload struct {
	schemas  []storage.Schema
	populate func(*storage.Catalog) error
	specs    func() []*proc.Spec
	calls    func(wi int) func() (string, []storage.Value)
}

// standard is the TPC-C mix every experiment runs unless the paper
// says otherwise.
var standard = tpcc.StandardMix()

// tpccLoad is TPC-C at laptop scale: wh warehouses under mix.
func tpccLoad(wh int, mix tpcc.Mix) workload {
	cfg := tpcc.Scaled(wh)
	return workload{
		schemas:  tpcc.Schemas(0),
		populate: func(cat *storage.Catalog) error { return tpcc.Populate(cat, cfg) },
		specs:    tpcc.Specs,
		calls: func(wi int) func() (string, []storage.Value) {
			gen := tpcc.NewGen(cfg, mix, wi)
			return func() (string, []storage.Value) {
				req := gen.Next()
				return req.Proc, req.Args
			}
		},
	}
}

// smallbankAccounts is Table 2's key count.
const smallbankAccounts = 1000

// smallbankLoad is the six-procedure Smallbank mix with Zipf-skewed
// account selection (θ controls contention, Table 2).
func smallbankLoad(theta float64) workload {
	return workload{
		schemas: smallbank.Schemas(),
		populate: func(cat *storage.Catalog) error {
			return smallbank.Populate(cat, smallbankAccounts, 10000, 10000)
		},
		specs: smallbank.Specs,
		calls: func(wi int) func() (string, []storage.Value) {
			rng := rand.New(rand.NewSource(int64(wi)*13 + 7))
			zg := zipf.New(smallbankAccounts, theta)
			return func() (string, []storage.Value) { return smallbankRequest(rng, zg) }
		},
	}
}

// cell configures one measurement: a fresh database of one workload,
// driven by closed loops on every worker for the measured window.
type cell struct {
	load     workload
	workers  int
	duration time.Duration
	adhocPct int    // share of calls run ad hoc (§4.8)
	procOnly string // restrict latency sampling to one procedure ("" = all)
	// engine knobs past the system's protocol and order
	detailed, noAccessCache, noReadCopies, noInterleave bool
	logging                                             bool
	logMode                                             wal.Mode
}

// cell is a measurement of load on o's workers for o's window.
func (o Opts) cell(load workload) cell {
	return cell{load: load, workers: o.Workers, duration: o.Duration}
}

// tpcc is a TPC-C cell at wh warehouses under the standard mix.
func (o Opts) tpcc(wh int) cell { return o.cell(tpccLoad(wh, standard)) }

// result is one cell's outcome.
type result struct {
	agg     *metrics.Aggregate
	perProc map[string]*Sampler
}

// latency merges every procedure's samples.
func (r result) latency() *Sampler {
	all := &Sampler{}
	for _, s := range r.perProc {
		all.Merge(s)
	}
	return all
}

// run populates the cell's database, runs it under sys and returns
// what the engine and the workers measured.
func (c cell) run(sys System) result {
	cat := storage.NewCatalog()
	for _, s := range c.load.schemas {
		cat.MustCreateTable(s)
	}
	if err := c.load.populate(cat); err != nil {
		panic(err)
	}
	opts := core.Options{
		Protocol:        sys.Protocol,
		Order:           sys.Order,
		Workers:         c.workers,
		NoAccessCache:   c.noAccessCache,
		NoReadCopies:    c.noReadCopies,
		DetailedMetrics: c.detailed,
		Interleave:      !c.noInterleave,
	}
	if c.logging {
		opts.Logger = wal.NewLogger(c.logMode, c.workers, func(int) io.Writer { return io.Discard })
	}
	eng := core.NewEngine(cat, opts)
	for _, s := range c.load.specs() {
		eng.MustRegister(s)
	}
	eng.Start()
	cellEngine.Store(eng)
	defer func() { cellEngine.Store(nil); _ = eng.Stop() }()

	samplers := make([]map[string]*Sampler, c.workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for wi := range samplers {
		samplers[wi] = map[string]*Sampler{}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// The pprof label makes per-worker samples separable
			// in profiles taken through the exposition endpoint.
			obs.DoWorker(wi, func() { c.loop(eng.Worker(wi), wi, samplers[wi], &stop) })
		}(wi)
	}
	time.Sleep(c.duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	res := result{agg: eng.Metrics(wall), perProc: map[string]*Sampler{}}
	for _, m := range samplers {
		for p, s := range m {
			if res.perProc[p] == nil {
				res.perProc[p] = &Sampler{}
			}
			res.perProc[p].Merge(s)
		}
	}
	return res
}

// loop is worker wi's closed loop: issue the next call, time it, and
// sample the latency of each committed one until stop.
func (c cell) loop(w *core.Worker, wi int, mine map[string]*Sampler, stop *atomic.Bool) {
	next := c.load.calls(wi)
	rng := rand.New(rand.NewSource(int64(wi)*31 + 17))
	for !stop.Load() {
		name, args := next()
		run := w.Run
		if c.adhocPct > 0 && rng.Intn(100) < c.adhocPct {
			run = w.RunAdhoc
		}
		t0 := time.Now()
		_, err := run(name, args...)
		dt := time.Since(t0)
		if err == nil && (c.procOnly == "" || c.procOnly == name) {
			s := mine[name]
			if s == nil {
				s = &Sampler{}
				mine[name] = s
			}
			s.Observe(float64(dt) / float64(time.Microsecond))
		}
	}
}

// smallbankRequest draws one transaction of the uniform six-way mix
// with Zipf-skewed account choice.
func smallbankRequest(rng *rand.Rand, zg *zipf.Generator) (string, []storage.Value) {
	acct := func() storage.Value { return storage.Int(int64(zg.Next(rng.Float64()))) }
	// Two-account procedures need distinct accounts (amalgamating an
	// account into itself would double money).
	pair := func() (storage.Value, storage.Value) {
		a := acct()
		for {
			b := acct()
			if !b.Equal(a) {
				return a, b
			}
		}
	}
	amt := storage.Int(int64(1 + rng.Intn(100)))
	switch rng.Intn(6) {
	case 0:
		return smallbank.ProcBalance, []storage.Value{acct()}
	case 1:
		return smallbank.ProcDepositChecking, []storage.Value{acct(), amt}
	case 2:
		return smallbank.ProcTransactSavings, []storage.Value{acct(), amt}
	case 3:
		a, b := pair()
		return smallbank.ProcAmalgamate, []storage.Value{a, b}
	case 4:
		return smallbank.ProcWriteCheck, []storage.Value{acct(), amt}
	default:
		a, b := pair()
		return smallbank.ProcSendPayment, []storage.Value{a, b, amt}
	}
}
