package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/core"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/storage"
	"thedb/internal/wal"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/zipf"
)

// System identifies one of the compared engines (paper §5).
type System int

// The systems of the evaluation.
const (
	THEDB System = iota
	THEDBW
	OCC
	SILO
	TPL
	HYBRID
	DT
	OCCMinus
	SILOMinus
)

// String names the system as the paper does.
func (s System) String() string {
	switch s {
	case THEDB:
		return "THEDB"
	case THEDBW:
		return "THEDB-W"
	case OCC:
		return "THEDB-OCC"
	case SILO:
		return "THEDB-SILO"
	case TPL:
		return "THEDB-2PL"
	case HYBRID:
		return "THEDB-HYBRID"
	case DT:
		return "THEDB-DT"
	case OCCMinus:
		return "THEDB-OCC-"
	case SILOMinus:
		return "THEDB-SILO-"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// AllSystems is the Fig. 10 lineup.
var AllSystems = []System{THEDB, OCC, SILO, TPL, HYBRID, DT}

func (s System) protocol() core.Protocol {
	switch s {
	case THEDB, THEDBW:
		return core.Healing
	case OCC:
		return core.OCC
	case SILO:
		return core.Silo
	case TPL:
		return core.TPL
	case HYBRID:
		return core.Hybrid
	case OCCMinus:
		return core.OCCNoValidate
	case SILOMinus:
		return core.SiloNoValidate
	case DT:
		return core.DT
	default:
		panic("bench: system has no core protocol")
	}
}

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

// obsPlane, when installed, is re-pointed at each engine the harness
// creates, so one exposition endpoint keeps serving live metrics
// while runners build and tear down engines per measurement cell.
var obsPlane *obs.Plane

// SetObsPlane installs the exposition hub (nil uninstalls). Call
// before running experiments; the harness is otherwise single-driver.
func SetObsPlane(p *obs.Plane) { obsPlane = p }

// attachObs points the installed hub (if any) at the live engine.
func attachObs(live func() *metrics.Aggregate) {
	if obsPlane != nil {
		obsPlane.SetSource(live)
	}
}

// detachObs disconnects the hub when a cell's engine is torn down.
func detachObs() {
	if obsPlane != nil {
		obsPlane.SetSource(nil)
	}
}

// tpccRun configures one TPC-C measurement cell.
type tpccRun struct {
	system     System
	workers    int
	warehouses int
	mix        tpcc.Mix
	duration   time.Duration
	adhocPct   int
	detailed   bool
	// ablation / ordering flags
	noAccessCache   bool
	noReadCopies    bool
	maxLockAttempts int
	noInterleave    bool
	addrOrder       bool // force address order (xlock ablation)
	// logging
	logMode  wal.Mode
	logging  bool
	procOnly string // restrict latency sampling to one procedure ("" = all)
}

// tpccResult is one cell's outcome.
type tpccResult struct {
	agg     *metrics.Aggregate
	perProc map[string]*Sampler
	cross   int64 // cross-partition transactions issued
}

// runTPCC populates a fresh TPC-C database at laptop scale and drives
// the workers in closed loops for the cell duration.
func runTPCC(r tpccRun) tpccResult {
	cfg := tpcc.Scaled(r.warehouses)
	cat := storage.NewCatalog()
	for _, s := range tpcc.Schemas(0) {
		cat.MustCreateTable(s)
	}
	if err := tpcc.Populate(cat, cfg); err != nil {
		panic(err)
	}

	opts := core.Options{
		Protocol:        r.system.protocol(),
		Workers:         r.workers,
		NoAccessCache:   r.noAccessCache,
		NoReadCopies:    r.noReadCopies,
		DetailedMetrics: r.detailed,
		Interleave:      !r.noInterleave,
		MaxLockAttempts: r.maxLockAttempts,
	}
	if r.system == THEDBW {
		opts.Order = core.ReverseTreeOrder
	}
	if r.addrOrder {
		opts.Order = core.AddrOrder
	}
	if r.logging {
		opts.Logger = wal.NewLogger(r.logMode, r.workers, func(int) io.Writer { return io.Discard })
	}
	eng := core.NewEngine(cat, opts)
	for _, s := range tpcc.Specs() {
		eng.MustRegister(s)
	}
	eng.Start()
	attachObs(eng.LiveMetrics)
	defer func() { detachObs(); _ = eng.Stop() }()

	samplers := make([]map[string]*Sampler, r.workers)
	var crossCount atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < r.workers; wi++ {
		wg.Add(1)
		samplers[wi] = map[string]*Sampler{}
		go func(wi int) {
			defer wg.Done()
			// The pprof label makes per-worker samples separable
			// in profiles taken through the exposition endpoint.
			obs.DoWorker(wi, func() {
				gen := tpcc.NewGen(cfg, r.mix, wi)
				rng := rand.New(rand.NewSource(int64(wi)*31 + 17))
				w := eng.Worker(wi)
				mine := samplers[wi]
				for !stop.Load() {
					req := gen.Next()
					if req.CrossPartition {
						crossCount.Add(1)
					}
					adhoc := r.adhocPct > 0 && rng.Intn(100) < r.adhocPct
					t0 := time.Now()
					var err error
					if adhoc {
						_, err = w.RunAdhoc(req.Proc, req.Args...)
					} else {
						_, err = w.Run(req.Proc, req.Args...)
					}
					dt := time.Since(t0)
					if err == nil && (r.procOnly == "" || r.procOnly == req.Proc) {
						s := mine[req.Proc]
						if s == nil {
							s = &Sampler{}
							mine[req.Proc] = s
						}
						s.Observe(float64(dt) / float64(time.Microsecond))
					}
				}
			})
		}(wi)
	}
	time.Sleep(r.duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	res := tpccResult{agg: eng.Metrics(wall), perProc: map[string]*Sampler{}, cross: crossCount.Load()}
	for _, m := range samplers {
		for p, s := range m {
			dst := res.perProc[p]
			if dst == nil {
				dst = &Sampler{}
				res.perProc[p] = dst
			}
			dst.Merge(s)
		}
	}
	return res
}

// smallbankRun configures one Smallbank cell.
type smallbankRun struct {
	system   System
	workers  int
	theta    float64
	accounts int
	duration time.Duration
}

type smallbankResult struct {
	agg     *metrics.Aggregate
	latency *Sampler
}

// runSmallbank drives the six-procedure Smallbank mix with
// Zipfian-skewed account selection (θ controls contention, Table 2).
func runSmallbank(r smallbankRun) smallbankResult {
	if r.accounts <= 0 {
		r.accounts = 1000
	}
	cat := storage.NewCatalog()
	for _, s := range smallbank.Schemas() {
		cat.MustCreateTable(s)
	}
	if err := smallbank.Populate(cat, r.accounts, 10000, 10000); err != nil {
		panic(err)
	}
	eng := core.NewEngine(cat, core.Options{Protocol: r.system.protocol(), Workers: r.workers, Interleave: true})
	for _, s := range smallbank.Specs() {
		eng.MustRegister(s)
	}
	eng.Start()
	attachObs(eng.LiveMetrics)
	defer func() { detachObs(); _ = eng.Stop() }()

	var stop atomic.Bool
	var wg sync.WaitGroup
	samplers := make([]*Sampler, r.workers)
	start := time.Now()
	for wi := 0; wi < r.workers; wi++ {
		wg.Add(1)
		samplers[wi] = &Sampler{}
		go func(wi int) {
			defer wg.Done()
			obs.DoWorker(wi, func() {
				rng := rand.New(rand.NewSource(int64(wi)*13 + 7))
				zg := zipf.New(uint64(r.accounts), r.theta)
				w := eng.Worker(wi)
				mine := samplers[wi]
				for !stop.Load() {
					procName, args := smallbankRequest(rng, zg)
					t0 := time.Now()
					_, err := w.Run(procName, args...)
					if err == nil {
						mine.Observe(float64(time.Since(t0)) / float64(time.Microsecond))
					}
				}
			})
		}(wi)
	}
	time.Sleep(r.duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	all := &Sampler{}
	for _, s := range samplers {
		all.Merge(s)
	}
	return smallbankResult{agg: eng.Metrics(wall), latency: all}
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
