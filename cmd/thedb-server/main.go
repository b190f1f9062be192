// Command thedb-server runs a THEDB instance behind the network
// serving plane: stored procedures are invoked remotely over the wire
// protocol (see DESIGN.md §12), with per-connection pipelining,
// admission control and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	thedb-server [flags]
//
// Flags:
//
//	-addr A             listen address (default :7707)
//	-workers N          engine sessions / dispatch goroutines (default 8)
//	-workload W         kv | ycsb | smallbank (default kv)
//	-wal.dir DIR        enable durability: rotating WAL generations and
//	                    checkpoint images in DIR
//	-wal.salvage        on restart, salvage a crash-torn log's committed
//	                    prefix instead of refusing to boot
//	-log.mode M         value | command (default value)
//	-checkpoint.every D online checkpoint cadence (default 30s; 0
//	                    disables; value mode only)
//	-obs.addr A         serve /metrics (incl. thedb_checkpoint_* and
//	                    thedb_server_*), /debug/events, /debug/recovery
//	                    and /debug/pprof on A
//	-trace.buffer N     retain the last N interesting transaction traces
//	                    (slow, aborted, healed) at /debug/trace
//	                    (default 0 = tracing off)
//	-trace.slow D       latency above which a committed transaction counts
//	                    as slow for trace retention and exemplars
//	                    (default 1ms)
//	-trace.exemplars    attach the latest slow trace ID to the latency
//	                    histogram (OpenMetrics exemplar syntax)
//	-contention.k N     track the K hottest contended keys at
//	                    /debug/contention and thedb_contention_topk
//	                    (default 0 = profiler off)
//	-ycsb.records N     YCSB table size (default 100000)
//	-sb.accounts N      Smallbank account count (default 10000)
//
// With -wal.dir the server is restartable with instant-restart
// semantics: boot loads the newest valid checkpoint image (falling
// back to its predecessor if the newest is damaged) and replays only
// the WAL tail — the commit groups above the checkpoint's watermark
// epoch — so restart time tracks the tail, not the database's history.
// While serving, a background checkpointer publishes fresh images
// crash-atomically and deletes WAL generations the watermark covers.
// Every transaction acknowledged before a drain (or, with
// -wal.salvage, before a crash) is visible after restart. The boot
// recovery report is printed as one JSON line on stderr and served at
// /debug/recovery.
//
// The kv workload registers three procedures over one ordered KV
// table: KVGet(key) → found,val; KVPut(key,val) upsert; KVInc(key,
// delta) → val. The shell's \connect mode speaks to them directly.
//
// Shutdown: on SIGINT/SIGTERM the server stops accepting, answers new
// calls with the retryable draining error, finishes every admitted
// transaction, flushes responses, seals the final epoch and syncs the
// WAL, takes a final quiesced checkpoint, then exits 0. A second
// signal forces exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thedb"
	"thedb/internal/obs"
	"thedb/internal/server"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/ycsb"
)

func main() {
	addr := flag.String("addr", ":7707", "listen address")
	workers := flag.Int("workers", 8, "engine sessions / dispatch goroutines")
	workload := flag.String("workload", "kv", "schema and procedures to serve: kv | ycsb | smallbank")
	walDir := flag.String("wal.dir", "", "enable durability: rotating WAL generations and checkpoints in this directory")
	walSalvage := flag.Bool("wal.salvage", false, "on restart, salvage a crash-torn log's committed prefix instead of refusing to boot")
	logMode := flag.String("log.mode", "value", "WAL mode: value | command")
	ckEvery := flag.Duration("checkpoint.every", 30*time.Second, "online checkpoint cadence (0 disables; value mode only)")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this host:port")
	traceBuffer := flag.Int("trace.buffer", 0, "retain the last N interesting transaction traces at /debug/trace (0 disables tracing)")
	traceSlow := flag.Duration("trace.slow", time.Millisecond, "latency above which a committed transaction counts as slow for trace retention")
	traceExemplars := flag.Bool("trace.exemplars", false, "attach the latest slow trace ID to the latency histogram (OpenMetrics exemplars)")
	contentionK := flag.Int("contention.k", 0, "track the K hottest contended keys at /debug/contention (0 disables)")
	ycsbRecords := flag.Int("ycsb.records", 100000, "YCSB table size")
	sbAccounts := flag.Int("sb.accounts", 10000, "Smallbank account count")
	dedupWindow := flag.Int("dedup.window", 0, "per-session cache of completed responses for exactly-once retries (0 = default 256, negative disables)")
	flag.Parse()

	cfg := thedb.Config{
		Protocol: thedb.Healing, Workers: *workers, EventBuffer: 256,
		TraceBuffer: *traceBuffer, TraceSlow: *traceSlow, TraceExemplars: *traceExemplars,
		ContentionK: *contentionK,
	}
	switch *logMode {
	case "value":
		cfg.LogMode = thedb.ValueLogging
	case "command":
		cfg.LogMode = thedb.CommandLogging
	default:
		fatalf("unknown -log.mode %q (want value or command)", *logMode)
	}

	var fs *thedb.WALSet
	if *walDir != "" {
		var err error
		fs, err = thedb.OpenWALSet(*walDir, *workers)
		if err != nil {
			fatalf("wal dir: %v", err)
		}
		cfg.WALSet = fs
	}

	db, err := thedb.Open(cfg)
	if err != nil {
		fatalf("open: %v", err)
	}
	setupSchema(db, *workload)

	var report *thedb.BootReport
	if fs != nil {
		report, err = db.Boot(fs, thedb.RecoverOptions{Salvage: *walSalvage})
		if err != nil {
			fatalf("recovery: %v", err)
		}
		if report.CheckpointPath == "" && report.GroupsApplied == 0 && report.CommandsReplayed == 0 {
			// Nothing on disk: first boot, load the baseline rows.
			if err := populate(db, *workload, *ycsbRecords, *sbAccounts); err != nil {
				fatalf("populating %s: %v", *workload, err)
			}
		}
		line, _ := json.Marshal(report)
		fmt.Fprintf(os.Stderr, "thedb-server: recovery %s\n", line)
	} else if err := populate(db, *workload, *ycsbRecords, *sbAccounts); err != nil {
		fatalf("populating %s: %v", *workload, err)
	}
	db.Start()

	if fs != nil && *ckEvery > 0 {
		if cfg.LogMode == thedb.CommandLogging {
			fmt.Fprintln(os.Stderr, "thedb-server: online checkpoints need value logging; relying on the drain checkpoint only")
		} else if err := db.CheckpointEvery(*walDir, *ckEvery); err != nil {
			fatalf("checkpointer: %v", err)
		}
	}

	srv := server.New(db, server.Config{DedupWindow: *dedupWindow})

	if *obsAddr != "" {
		plane := db.ObsPlane()
		plane.SetServerStats(srv.Stats())
		if report != nil {
			plane.SetBootReport(report)
		}
		osrv, err := obs.StartServer(*obsAddr, plane.Handler())
		if err != nil {
			fatalf("obs: %v", err)
		}
		defer func() {
			if err := osrv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "thedb-server: obs close:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "thedb-server: obs on http://%s/metrics\n", osrv.Addr())
	}

	// Drain on the first signal; force-quit on the second.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "thedb-server: %s workload on %s (%d workers)\n", *workload, *addr, *workers)
		serveErr <- srv.ListenAndServe(*addr)
	}()

	select {
	case err := <-serveErr:
		fatalf("serve: %v", err)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "thedb-server: %v: draining...\n", sig)
	}
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "thedb-server: forced exit")
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		fatalf("serve: %v", err)
	}
	if err := db.Close(); err != nil {
		fatalf("close: %v", err)
	}
	if fs != nil {
		// Final quiesced checkpoint: the next boot replays (almost) no
		// tail, making the restart instant regardless of this run's
		// history.
		if info, err := db.Checkpoint(*walDir); err != nil {
			fmt.Fprintln(os.Stderr, "thedb-server: drain checkpoint:", err)
		} else {
			fmt.Fprintf(os.Stderr, "thedb-server: drain checkpoint %s (watermark epoch %d, %d rows)\n",
				info.Path, info.Watermark, info.Rows)
		}
		if err := fs.Close(); err != nil {
			fatalf("closing wal: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "thedb-server: drained; WAL sealed and synced")
}

// setupSchema creates the tables and registers the procedure catalog
// for the chosen workload (no data).
func setupSchema(db *thedb.DB, name string) {
	switch name {
	case "kv":
		registerKV(db)
	case "ycsb":
		db.MustCreateTable(ycsb.Schema())
		for _, s := range ycsb.Specs() {
			db.MustRegister(s)
		}
	case "smallbank":
		for _, s := range smallbank.Schemas() {
			db.MustCreateTable(s)
		}
		for _, s := range smallbank.Specs() {
			db.MustRegister(s)
		}
	default:
		fatalf("unknown workload %q (want kv, ycsb or smallbank)", name)
	}
}

// populate loads the workload's baseline rows (first boot; later
// boots restore them from the checkpoint and WAL tail instead).
func populate(db *thedb.DB, name string, ycsbRecords, sbAccounts int) error {
	switch name {
	case "kv":
		return nil
	case "ycsb":
		return ycsb.Populate(db.Catalog(), ycsbRecords, 8)
	case "smallbank":
		return smallbank.Populate(db.Catalog(), sbAccounts, 10000, 10000)
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
}

// registerKV installs the shell-friendly KV catalog: one ordered
// int-valued table with get / upsert / increment procedures.
func registerKV(db *thedb.DB) {
	db.MustCreateTable(thedb.Schema{
		Name:    "KV",
		Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
		Ordered: true,
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVGet",
		Params: []string{"key"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "get",
				KeyReads: []string{"key"},
				Writes:   []string{"found", "val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("KV", thedb.Key(e.Int("key")), nil)
					if err != nil {
						return err
					}
					if !ok {
						e.SetInt("found", 0)
						e.SetInt("val", 0)
						return nil
					}
					e.SetInt("found", 1)
					e.SetVal("val", row[0])
					return nil
				},
			})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVPut",
		Params: []string{"key", "val"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "upsert",
				KeyReads: []string{"key"},
				ValReads: []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					k := thedb.Key(e.Int("key"))
					_, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{e.Val("val")})
					}
					return ctx.Insert("KV", k, thedb.Tuple{e.Val("val")})
				},
			})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVInc",
		Params: []string{"key", "delta"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "inc",
				KeyReads: []string{"key"},
				ValReads: []string{"delta"},
				Writes:   []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					k := thedb.Key(e.Int("key"))
					row, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					cur := int64(0)
					if ok {
						cur = row[0].Int()
					}
					next := cur + e.Int("delta")
					e.SetInt("val", next)
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{thedb.Int(next)})
					}
					return ctx.Insert("KV", k, thedb.Tuple{thedb.Int(next)})
				},
			})
		},
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thedb-server: "+format+"\n", args...)
	os.Exit(1)
}
