package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/checkpoint"
	"thedb/internal/server"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
	"thedb/internal/workload/zipf"
)

// callers is the benchmark's nproc: engine workers, caller goroutines
// and client connections are all this many, never more (a closed loop
// with more callers than cores measures the scheduler, not the engine).
const callers = 2

// pipelineDepth is the CallBatch size on ycsb-net-pipe.
const pipelineDepth = 16

// nullProc is the null layer: a registered procedure that touches no
// table, so what remains of a call to it is dispatch (Session.Run) or
// serving (client → wire → server → session → wire → client).
const nullProc = "BenchNull"

// workload is one named traffic mix. The names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string

	tpcc       bool
	warehouses int
	mix        ycsb.Mix // when !tpcc

	net     bool // loopback client/server instead of local sessions
	batch   int  // calls per CallBatch; 0 = one synchronous call at a time
	durable bool // value-logging WAL, checkpoints, timed restart
}

var workloads = []workload{
	{
		name: "tpcc-hot", tpcc: true, warehouses: 1,
		why: "1 warehouse shared by both workers: validate/heal in core does most of the work (the paper's headline cell)",
	},
	{
		name: "tpcc-durable", tpcc: true, warehouses: 4, durable: true,
		why: "4 warehouses, WAL fsync per epoch, checkpoints, restart: wal/checkpoint/storage work while healing idles",
	},
	{
		name: "ycsb-net-pipe", mix: ycsb.WorkloadA, net: true, batch: pipelineDepth,
		why: "YCSB A over loopback in 16-call batches: ~4us of engine inside ~20us of wire/client/server",
	},
	{
		name: "tpcc-net-sync", tpcc: true, warehouses: 4, net: true,
		why: "TPC-C over loopback, one synchronous call at a time: per-call hand-off and 50-value frames, no pipelining",
	},
	{
		name: "ycsb-snap", mix: ycsb.WorkloadSnap,
		why: "70 read / 25 update / 5 snapshot scans: version-chain installs beside zero-validation readers",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale fixes the table sizes. fullScale is the benchmark's; tests use
// a smaller one.
type scale struct {
	tpcc    tpcc.Config // Warehouses and Seed are filled per workload
	records int         // YCSB rows
	theta   float64     // YCSB skew
	tail    int         // tpcc-durable: transactions after the final checkpoint
}

// fullScale's TPC-C has 1,000 customers per district so that every
// last name a by-name Payment or OrderStatus can draw exists: at
// tpcc.Scaled (120 customers) a quarter of all transactions are no-op
// user aborts.
var fullScale = scale{
	tpcc:    tpcc.Config{DistrictsPerW: 10, CustomersPerDistrict: 1000, Items: 10000, InitOrdersPerDist: 300},
	records: 100000,
	theta:   0.8,
	tail:    5000,
}

// params is the time shape and seed of one run.
type params struct {
	seed   int64
	warm   time.Duration
	window time.Duration
	slice  time.Duration // throughput is the median over window/slice slices

	// ckptEvery is how often the driver calls db.Checkpoint on the
	// durable workload. It is fixed, not a share of the window, so that
	// the traced run's shorter windows see the same duty cycle.
	ckptEvery time.Duration

	scale  scale
	outDir string // trace files and the durable workload's WAL directory
}

func nullSpec() *thedb.Spec {
	return &thedb.Spec{
		Name:   nullProc,
		Params: []string{"x"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "null",
				ValReads: []string{"x"},
				Writes:   []string{"y"},
				Body: func(ctx thedb.OpCtx) error {
					ctx.Env().SetInt("y", ctx.Env().Int("x"))
					return nil
				},
			})
		},
	}
}

// env is one set-up database with everything a pass drives it through.
type env struct {
	wl *workload
	p  params

	db       *thedb.DB
	srv      *server.Server
	serveErr chan error
	clients  []*client.Client

	walDir string
	fs     *thedb.WALSet
	wal    *walProbe // traced durable passes only

	tcfg     tpcc.Config
	epoch    time.Time // span times are relative to this
	phaseOff int64     // the running phase's start, in ns since epoch
	tr       *tracer   // traced passes only
	bgRing   *spanRing // the driver's checkpoint and restart spans

	callers []*caller
}

// setup builds the system under test: open, create tables, load,
// register procedures, start; for net workloads also listen and dial.
// It is what setup_s times. Request generators are the benchmark's own
// and are built by newCallers, outside the timer.
func setup(wl *workload, p params, traced bool) (e *env, err error) {
	e = &env{wl: wl, p: p, epoch: time.Now()}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()
	cfg := thedb.Config{Protocol: thedb.Healing, Workers: callers}
	if traced {
		cfg.DetailedMetrics = true
		cfg.TraceBuffer = 1024
		e.tr = &tracer{}
	}
	if wl.durable {
		e.walDir = filepath.Join(p.outDir, fmt.Sprintf("wal-%s-%d", wl.name, os.Getpid()))
		var wrap func(int, *os.File) io.Writer
		if traced {
			e.wal = newWALProbe(e.tr, e.epoch)
			wrap = e.wal.wrap
		}
		if e.fs, err = checkpoint.OpenFileSet(e.walDir, callers, wrap); err != nil {
			return e, err
		}
		cfg.WALSet = e.fs
		cfg.LogMode = thedb.ValueLogging
	}
	if e.db, err = thedb.Open(cfg); err != nil {
		return e, err
	}
	if err = e.loadSchema(e.db, true); err != nil {
		return e, err
	}
	e.db.Start()
	if !wl.net {
		return e, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.srv = server.New(e.db, server.Config{})
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(l) }()
	for i := 0; i < callers; i++ {
		cl, err := client.Dial(l.Addr().String(), client.Options{Conns: 1})
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

// loadSchema creates the workload's tables and procedures on db and,
// when populate is set, loads the baseline rows. The restart path
// calls it with populate false: rows come from the checkpoint image.
func (e *env) loadSchema(db *thedb.DB, populate bool) error {
	if e.wl.tpcc {
		e.tcfg = e.p.scale.tpcc
		e.tcfg.Warehouses = e.wl.warehouses
		e.tcfg.Seed = e.p.seed
		for _, s := range tpcc.Schemas(0) {
			if err := db.CreateTable(s); err != nil {
				return err
			}
		}
		for _, s := range tpcc.Specs() {
			if err := db.Register(s); err != nil {
				return err
			}
		}
		if populate {
			if err := tpcc.Populate(db.Catalog(), e.tcfg); err != nil {
				return err
			}
		}
	} else {
		if err := db.CreateTable(ycsb.Schema()); err != nil {
			return err
		}
		for _, s := range ycsb.Specs() {
			if err := db.Register(s); err != nil {
				return err
			}
		}
		if populate {
			if err := ycsb.Populate(db.Catalog(), e.p.scale.records, 8); err != nil {
				return err
			}
		}
	}
	return db.Register(nullSpec())
}

// newCallers builds each caller's request source: a pre-generated ring
// for YCSB, an inline tpcc.Gen for TPC-C.
func (e *env) newCallers() {
	var zg *zipf.Generator
	if !e.wl.tpcc {
		zg = zipf.New(uint64(e.p.scale.records), e.p.scale.theta)
	}
	e.callers = make([]*caller, callers)
	for i := range e.callers {
		c := &caller{e: e}
		if e.wl.net {
			c.cl = e.clients[i]
		} else {
			c.sess = e.db.Session(i)
		}
		if e.wl.tpcc {
			c.gen = tpcc.NewGen(e.tcfg, tpcc.StandardMix(), i)
		} else {
			c.tape = ycsbTape(e.p.seed, i, e.wl.mix, zg, tapeLen)
			if e.wl.batch > 0 {
				c.inv = make([]client.Invocation, len(c.tape))
				for j, r := range c.tape {
					c.inv[j] = client.Invocation{Proc: r.proc, Args: r.args}
				}
			}
		}
		if e.tr != nil {
			c.ring = e.tr.ring()
		}
		e.callers[i] = c
	}
}

func (e *env) at(t time.Time) int64 { return int64(t.Sub(e.epoch)) }

// closeDB stops serving and closes the database (sealing and syncing
// the WAL) but leaves the WAL directory in place for the restart.
func (e *env) closeDB() error {
	var errs []error
	for _, cl := range e.clients {
		errs = append(errs, cl.Close())
	}
	e.clients = nil
	switch {
	case e.srv != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx), <-e.serveErr) // Shutdown closes the database
		cancel()
		e.srv, e.db = nil, nil
	case e.db != nil:
		errs = append(errs, e.db.Close())
		e.db = nil
	}
	if e.fs != nil {
		errs = append(errs, e.fs.Close())
		e.fs = nil
	}
	return errors.Join(errs...)
}

// teardown releases everything setup acquired.
func (e *env) teardown() error {
	err := e.closeDB()
	if e.walDir != "" {
		err = errors.Join(err, os.RemoveAll(e.walDir))
	}
	return err
}
