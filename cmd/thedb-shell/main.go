// Command thedb-shell is an interactive shell over a THEDB instance,
// demonstrating ad-hoc transactions (§4.8): every statement runs as
// an anonymous OCC transaction through Session.Transact, with no
// dependency information and hence no healing — exactly the paper's
// ad-hoc path.
//
// It opens a demo database (internal/workload/kv's table, or the
// Smallbank schema with -smallbank) and accepts:
//
//	get <table> <key>
//	set <table> <key> <col> <int-value>
//	scan <table> <lo> <hi>          (tables with ordered indexes)
//	txn <stmt>; <stmt>; ...         (several statements, one transaction)
//	stats                           (committed / restarts / heals)
//	\metrics                        (live snapshot, Prometheus text format)
//	\events                         (flight-recorder protocol event dump)
//	\trace                          (retained transaction traces with
//	                                 per-phase timings and heal passes)
//	\contention                     (hot-key top-K contention sketch)
//	\connect <host:port>            (remote mode: statements become
//	                                 stored-procedure calls on a
//	                                 thedb-server; \disconnect returns)
//	tables
//	help, quit
//
// Example session:
//
//	$ go run ./cmd/thedb-shell
//	thedb> set KV 1 0 42
//	ok (inserted)
//	thedb> get KV 1
//	KV[1] = [42]
//	thedb> txn get KV 1; set KV 2 0 99
//	KV[1] = [42]
//	ok (inserted)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/obs"
	"thedb/internal/storage"
	"thedb/internal/workload/kv"
	"thedb/internal/workload/smallbank"
)

func main() {
	useSmallbank := flag.Bool("smallbank", false, "open the Smallbank schema (1000 accounts) instead of a bare KV table")
	flag.Parse()

	// EventBuffer keeps the last protocol events per worker for
	// \events; TraceBuffer/ContentionK feed \trace and \contention —
	// all negligible cost at shell scale.
	db, err := thedb.Open(thedb.Config{
		Protocol: thedb.Healing, Workers: 1, EventBuffer: 256,
		TraceBuffer: 64, TraceSlow: time.Millisecond, ContentionK: 16,
	})
	if err != nil {
		fatal(err)
	}
	if *useSmallbank {
		for _, s := range smallbank.Schemas() {
			db.MustCreateTable(s)
		}
		if err := smallbank.Populate(db.Catalog(), 1000, 10000, 10000); err != nil {
			fatal(err)
		}
	} else {
		db.MustCreateTable(kv.Schema())
	}
	db.Start()
	defer func() {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "thedb-shell: closing database:", err)
		}
	}()
	s := db.Session(0)

	fmt.Println("THEDB ad-hoc shell. Statements run as OCC transactions; 'help' lists commands.")
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("thedb> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		switch {
		case line == "quit" || line == "exit":
			return
		case line == "help":
			usage()
		case strings.HasPrefix(line, `\connect`):
			f := strings.Fields(line)
			if len(f) != 2 {
				fmt.Println(`usage: \connect <host:port>`)
				continue
			}
			remoteShell(in, f[1])
		case line == "tables":
			for _, t := range db.Catalog().Tables() {
				fmt.Printf("%s (%d records)\n", t.Schema().Name, t.Len())
			}
		case line == "stats":
			m := db.Metrics(0)
			fmt.Printf("committed=%d restarts=%d aborted=%d heals=%d\n",
				m.Committed, m.Restarts, m.Aborted, m.Heals)
		case line == `\metrics`:
			obs.WriteProm(os.Stdout, db.LiveMetrics())
		case line == `\events`:
			db.DumpEvents(os.Stdout)
		case line == `\trace`:
			dumpTraces(db.Tracer())
		case line == `\contention`:
			dumpContention(db.Contention())
		default:
			stmts := []string{line}
			if strings.HasPrefix(line, "txn ") {
				stmts = strings.Split(strings.TrimPrefix(line, "txn "), ";")
			}
			runStatements(db, s, stmts)
		}
	}
}

// runStatements executes the statements as one ad-hoc transaction.
func runStatements(db *thedb.DB, s *thedb.Session, stmts []string) {
	var outputs []string
	err := s.Transact(func(ctx thedb.OpCtx) error {
		outputs = outputs[:0] // the closure may re-run after conflicts
		for _, stmt := range stmts {
			out, err := execOne(db, ctx, strings.Fields(strings.TrimSpace(stmt)))
			if err != nil {
				return err
			}
			outputs = append(outputs, out...)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, o := range outputs {
		fmt.Println(o)
	}
}

func execOne(db *thedb.DB, ctx thedb.OpCtx, f []string) ([]string, error) {
	if len(f) == 0 {
		return nil, nil
	}
	switch f[0] {
	case "get":
		if len(f) != 3 {
			return nil, fmt.Errorf("usage: get <table> <key>")
		}
		key, err := parseKey(f[2])
		if err != nil {
			return nil, err
		}
		row, ok, err := ctx.Read(f[1], key, nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []string{fmt.Sprintf("%s[%d] not found", f[1], key)}, nil
		}
		return []string{fmt.Sprintf("%s[%d] = %v", f[1], key, row)}, nil
	case "set":
		if len(f) != 5 {
			return nil, fmt.Errorf("usage: set <table> <key> <col> <int-value>")
		}
		key, err := parseKey(f[2])
		if err != nil {
			return nil, err
		}
		col, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return nil, err
		}
		tab, ok := db.Table(f[1])
		if !ok {
			return nil, fmt.Errorf("no table %q", f[1])
		}
		cols := tab.Schema().Columns
		if col < 0 || col >= len(cols) || cols[col].Kind != thedb.KindInt {
			return nil, fmt.Errorf("%s has no int column %d", f[1], col)
		}
		if _, ok, _ := ctx.Read(f[1], key, nil); !ok {
			// Create the row if absent (upsert semantics for the
			// demo), NULL in every other column.
			row := make(thedb.Tuple, len(cols))
			row[col] = thedb.Int(v)
			if err := ctx.Insert(f[1], key, row); err != nil {
				return nil, err
			}
			return []string{"ok (inserted)"}, nil
		}
		if err := ctx.Write(f[1], key, []int{col}, []thedb.Value{thedb.Int(v)}); err != nil {
			return nil, err
		}
		return []string{"ok"}, nil
	case "scan":
		if len(f) != 4 {
			return nil, fmt.Errorf("usage: scan <table> <lo> <hi>")
		}
		lo, err1 := parseKey(f[2])
		hi, err2 := parseKey(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad scan bounds")
		}
		var out []string
		err := ctx.Scan(f[1], lo, hi, 100, func(k thedb.Key, row thedb.Tuple) bool {
			out = append(out, fmt.Sprintf("%s[%d] = %v", f[1], k, row))
			return true
		})
		return out, err
	default:
		return nil, fmt.Errorf("unknown statement %q (try 'help')", f[0])
	}
}

// remoteShell is network mode: statements run as stored-procedure
// calls on a remote thedb-server (see \connect). get/set/inc map onto
// the server's KV catalog; call invokes any registered procedure with
// int-or-string arguments.
func remoteShell(in *bufio.Scanner, addr string) {
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer func() {
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "thedb-shell: closing client:", err)
		}
	}()
	fmt.Printf("connected to %s; remote statements run as stored procedures (\\disconnect to leave)\n", addr)
	for {
		fmt.Printf("thedb@%s> ", addr)
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		var (
			proc string
			args []storage.Value
		)
		switch f[0] {
		case `\disconnect`:
			return
		case "quit", "exit":
			// Leave remote mode only; the local shell keeps running.
			return
		case "help":
			fmt.Print(`remote commands:
  get <key>             KVGet
  set <key> <value>     KVPut
  inc <key> <delta>     KVInc
  call <proc> <args>... any registered procedure (args: int or string)
  \disconnect           back to the local shell
`)
			continue
		case "get", "set", "inc":
			proc = map[string]string{"get": kv.ProcGet, "set": kv.ProcPut, "inc": kv.ProcInc}[f[0]]
			for _, a := range f[1:] {
				n, err := strconv.ParseInt(a, 10, 64)
				if err != nil {
					fmt.Printf("error: %s takes integer arguments\n", f[0])
					proc = ""
					break
				}
				args = append(args, thedb.Int(n))
			}
			if proc == "" {
				continue
			}
		case "call":
			if len(f) < 2 {
				fmt.Println("usage: call <proc> <args>...")
				continue
			}
			proc = f[1]
			for _, a := range f[2:] {
				if n, err := strconv.ParseInt(a, 10, 64); err == nil {
					args = append(args, thedb.Int(n))
				} else {
					args = append(args, thedb.Str(a))
				}
			}
		default:
			fmt.Printf("unknown remote statement %q (try 'help')\n", f[0])
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := cl.Call(ctx, proc, args...)
		cancel()
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		names := res.Names()
		if len(names) == 0 {
			fmt.Println("ok")
			continue
		}
		for _, n := range names {
			if vs := res.Vals(n); len(vs) > 1 {
				fmt.Printf("%s = %v\n", n, vs)
			} else {
				fmt.Printf("%s = %s\n", n, formatValue(res.Val(n)))
			}
		}
	}
}

func formatValue(v thedb.Value) string {
	switch v.Kind() {
	case thedb.KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case thedb.KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case thedb.KindString:
		return strconv.Quote(v.Str())
	default:
		return "null"
	}
}

func parseKey(s string) (thedb.Key, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	return thedb.Key(n), err
}

func usage() {
	fmt.Print(`commands:
  get <table> <key>
  set <table> <key> <col> <int-value>
  scan <table> <lo> <hi>
  txn <stmt>; <stmt>; ...
  tables | stats | help | quit
  \metrics   live snapshot in Prometheus text format
  \events    flight-recorder protocol event dump
  \trace     retained transaction traces (per-phase timings, heal passes)
  \contention  hot-key top-K contention sketch
  \connect <host:port>   switch to a remote thedb-server (stored-procedure calls)
`)
}

// dumpTraces prints the tracer's retained traces, newest first: one
// line per transaction with its per-phase microsecond breakdown, plus
// one indented line per heal pass.
func dumpTraces(tr *obs.Tracer) {
	if tr == nil {
		fmt.Println("tracing not enabled")
		return
	}
	total, kept := tr.Stats()
	fmt.Printf("traces: %d retained of %d transactions (slow/aborted/healed kept)\n", kept, total)
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	for _, t := range tr.Snapshot() {
		fmt.Printf("%016x %-10s w%-2d %-9s proto=%d total=%v queue=%v exec=%v validate=%v heal=%v commit=%v wal=%v resp=%v attempts=%d escalations=%d epoch=%d\n",
			t.ID, t.Proc, t.Worker, t.Outcome, t.Proto,
			us(t.TotalUS), us(t.QueueUS), us(t.ExecUS), us(t.ValidateUS),
			us(t.HealUS), us(t.CommitUS), us(t.WALUS), us(t.RespUS),
			t.Attempts, t.Escalations, t.Epoch)
		for i := uint32(0); i < t.NPasses && i < obs.MaxHealPasses; i++ {
			p := t.Passes[i]
			fmt.Printf("  heal pass %d: [%v..%v] ops-restored=%d frontier=%d\n",
				i+1, us(p.StartUS), us(p.EndUS), p.Restored, p.Frontier)
		}
	}
}

// dumpContention prints the hot-key sketch, hottest first.
func dumpContention(c *obs.Contention) {
	if c == nil {
		fmt.Println("contention profiling not enabled")
		return
	}
	fmt.Printf("contention: top-%d of %d touches (count overestimates by at most err)\n", c.K(), c.Total())
	for i, e := range c.Snapshot() {
		fmt.Printf("%2d. table=%d key=%d count=%d err=%d fails=%d heals=%d\n",
			i+1, e.Table, e.Key, e.Count, e.Err, e.Fails, e.Heals)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thedb-shell:", err)
	os.Exit(1)
}
