// Command thedb-bench has two modes.
//
// Paper figures: regenerate the tables and figures of "Transaction
// Healing: Scaling Optimistic Concurrency Control on Multicores"
// (SIGMOD 2016) against in-process engines.
//
//	thedb-bench [flags] all            # every experiment, paper order
//	thedb-bench [flags] fig10 tab1 ... # selected experiments
//	thedb-bench list                   # available experiment ids
//
//	-workers N    concurrent workers standing in for the paper's cores (default 8)
//	-duration D   measured window per cell (default 400ms)
//	-quick        shrink sweeps for a fast smoke run
//	-obs.addr A   serve live metrics on A (host:port): /metrics is the
//	              Prometheus text format, /debug/pprof/ profiles the
//	              run with per-worker labels
//
// Load generator: with -addr, drive a running thedb-server with a
// pipelined YCSB mix for -duration and print outcome counts. It takes
// no experiment ids, ignores the flags above other than -duration (as
// the figures ignore -net.*), and is not a measuring
// instrument — system numbers come from benchmark/run.sh.
//
//	thedb-bench -addr 127.0.0.1:7707 -duration 2s -net.mix a
//
//	-net.clients N   client goroutines (default 8)
//	-net.conns N     pooled connections (default 4)
//	-net.mix M       YCSB mix: a, b, c, f or snap (default b)
//	-net.records N   table size; must match the server's -ycsb.records
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"thedb/internal/bench"
	"thedb/internal/obs"
)

func main() {
	workers := flag.Int("workers", 8, "concurrent workers (the paper's 'cores' axis)")
	duration := flag.Duration("duration", 400*time.Millisecond, "measured window per experiment cell, or how long -addr mode drives the server")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this host:port while experiments run")
	addr := flag.String("addr", "", "drive a running thedb-server at this address instead of running local experiments")
	netClients := flag.Int("net.clients", 8, "client goroutines for -addr mode")
	netConns := flag.Int("net.conns", 4, "pooled connections for -addr mode")
	netMix := flag.String("net.mix", "b", "YCSB mix for -addr mode: a, b, c, f or snap (read-mostly with snapshot long scans)")
	netRecords := flag.Int("net.records", 100000, "remote YCSB table size (must match the server's -ycsb.records)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if *addr != "" {
		if len(args) > 0 {
			fmt.Fprintf(os.Stderr, "thedb-bench: -addr takes no experiment ids (got %q)\n", args)
			usage()
			os.Exit(2)
		}
		o := netOpts{
			addr:     *addr,
			clients:  *netClients,
			conns:    *netConns,
			mix:      *netMix,
			records:  *netRecords,
			duration: *duration,
		}
		c, err := netBench(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "net bench: %v\n", err)
			os.Exit(1)
		}
		printNetCounts(o, c)
		if c.failed > 0 {
			fmt.Fprintf(os.Stderr, "net bench: %d calls failed, the first with: %v\n", c.failed, c.firstFailure)
			os.Exit(1)
		}
		return
	}

	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	opts := bench.Opts{
		Workers:  *workers,
		Duration: *duration,
		Out:      os.Stdout,
		Quick:    *quick,
	}

	if *obsAddr != "" {
		srv, err := obs.StartServer(*obsAddr, obs.Handler(bench.ObsSources()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics on http://%s\n", srv.Addr())
	}

	if args[0] == "list" {
		for _, e := range bench.Registry() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := bench.Run(opts, args...); err != nil {
		fmt.Fprintf(os.Stderr, "%v; try 'thedb-bench list'\n", err)
		os.Exit(2)
	}
}

// printNetCounts renders one -addr run: what was driven, then what
// came back.
func printNetCounts(o netOpts, c netCounts) {
	fmt.Printf("net bench: %s mix=%s clients=%d conns=%d pipeline=%d records=%d theta=%.2f\n",
		o.addr, o.mix, o.clients, o.conns, netPipeline, o.records, netTheta)
	fmt.Printf("  committed %d (%.0f txn/s), aborted %d, ambiguous %d, failed %d in %v\n",
		c.committed, float64(c.committed)/c.wall.Seconds(), c.aborted, c.ambiguous, c.failed, c.wall.Round(time.Millisecond))
	if c.snapReads > 0 {
		fmt.Printf("  snapshot reads %d (read-only path, zero validation)\n", c.snapReads)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: thedb-bench [-workers N] [-duration D] [-quick] [-obs.addr A] all | list | <experiment-id>...")
	fmt.Fprintln(os.Stderr, "       thedb-bench -addr host:port [-duration D] [-net.* ...]   (load generator; no experiment ids)")
	flag.PrintDefaults()
}
