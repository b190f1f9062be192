package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/storage"
	"thedb/internal/wire"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
)

// probes are the layers measured alone, each from outside through its
// public functions, on the untraced pass's database once its window is
// over. A layer with a null layer beneath it (BenchNull) is costed by
// subtraction.
type probes struct {
	coreNullRunNS float64 // Session.Run of BenchNull
	coreRunNS     float64 // Session.Run of the workload's own mix
	nullPipeNS    float64 // BenchNull through client and server, 16 to a batch
	nullRTTNS     float64 // BenchNull through client and server, one at a time
	codecNS       float64 // encode+decode of one call and its result
	wireBytes     float64
	wireAllocs    float64
	peekNS        float64 // Table.Peek
}

// probeChunk is how many calls a probe makes between looks at the
// clock, so that reading it is not what gets measured.
const probeChunk = 64

// perCall runs body on every caller concurrently until dur has passed
// and returns mean caller-time per call in ns. body makes some calls
// and returns how many.
func perCall(cs []*caller, dur time.Duration, body func(c *caller) (int, error)) (float64, error) {
	var wg sync.WaitGroup
	calls := make([]int64, len(cs))
	busy := make([]int64, len(cs))
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			start := time.Now()
			for time.Since(start) < dur {
				n, err := body(c)
				if err != nil {
					errs[i] = err
					return
				}
				calls[i] += int64(n)
			}
			busy[i] = int64(time.Since(start))
		}(i, c)
	}
	wg.Wait()
	var n, ns int64
	for i := range calls {
		n += calls[i]
		ns += busy[i]
	}
	return ratio(float64(ns), float64(n)), errors.Join(errs...)
}

var nullArgs = []thedb.Value{thedb.Int(1)}

// runProbes measures every layer that exists on this workload. While
// it runs no caller is in its loop, so the engine sessions are free:
// on a net workload the server's dispatchers sit idle on their queue.
func (ps *pass) runProbes(dur time.Duration) (pr probes, err error) {
	e := ps.e
	ctx := context.Background()

	// Local twins of the callers: same request source, but calling the
	// engine session directly.
	local := make([]*caller, len(e.callers))
	for i, c := range e.callers {
		lc := *c
		lc.cl, lc.ring, lc.sess = nil, nil, e.db.Session(i)
		local[i] = &lc
	}

	if pr.coreNullRunNS, err = perCall(local, dur, func(c *caller) (int, error) {
		for i := 0; i < probeChunk; i++ {
			if _, err := c.sess.Run(nullProc, nullArgs...); err != nil {
				return 0, err
			}
		}
		return probeChunk, nil
	}); err != nil {
		return pr, fmt.Errorf("probe core.null_run_ns: %w", err)
	}

	// The workload's own mix on local sessions. A local workload's
	// window already is that measurement.
	if e.wl.net {
		if pr.coreRunNS, err = perCall(local, dur, func(c *caller) (int, error) {
			return 1, c.call(ctx, c.nextRequest()).err
		}); err != nil {
			return pr, fmt.Errorf("probe core.run_ns: %w", err)
		}
	} else {
		pr.coreRunNS = ratio(float64(ps.win.callNS), float64(ps.win.attempted))
	}

	if e.wl.net {
		batch := make([]client.Invocation, pipelineDepth)
		for i := range batch {
			batch[i] = client.Invocation{Proc: nullProc, Args: nullArgs}
		}
		if pr.nullPipeNS, err = perCall(e.callers, dur, func(c *caller) (int, error) {
			for _, rep := range c.cl.CallBatch(ctx, batch) {
				if rep.Err != nil {
					return 0, rep.Err
				}
			}
			return len(batch), nil
		}); err != nil {
			return pr, fmt.Errorf("probe server.null_pipe_ns_per_call: %w", err)
		}
		if pr.nullRTTNS, err = perCall(e.callers, dur, func(c *caller) (int, error) {
			_, err := c.cl.Call(ctx, nullProc, nullArgs...)
			return 1, err
		}); err != nil {
			return pr, fmt.Errorf("probe server.null_rtt_us: %w", err)
		}
		if pr.codecNS, pr.wireBytes, pr.wireAllocs, err = wireProbe(local[0], dur); err != nil {
			return pr, fmt.Errorf("probe wire: %w", err)
		}
	}

	if pr.peekNS, err = peekProbe(e, dur); err != nil {
		return pr, fmt.Errorf("probe storage.peek_ns: %w", err)
	}
	return pr, nil
}

// wireSample is how many of the workload's own requests the codec
// probe replays.
const wireSample = 1024

// outputsOf flattens a committed transaction's environment into wire
// outputs exactly as the server does before encoding a result.
func outputsOf(env *thedb.Env) []wire.Output {
	var outs []wire.Output
	env.Each(func(name string, v any) {
		switch val := v.(type) {
		case storage.Value:
			outs = append(outs, wire.Output{Name: name, Vals: []storage.Value{val}})
		case []storage.Value:
			outs = append(outs, wire.Output{Name: name, List: true, Vals: val})
		}
	})
	return outs
}

// wireProbe costs the codec alone, no sockets: wireSample of the
// workload's next requests are run once locally to learn their real
// outputs, then call and result are encoded and decoded in a loop.
// Requests that user-abort are left out.
func wireProbe(c *caller, dur time.Duration) (nsPerCall, bytesPerCall, allocsPerCall float64, err error) {
	type pair struct {
		call wire.Call
		outs []wire.Output
	}
	var tape []pair
	for i := 0; i < wireSample; i++ {
		r := c.nextRequest()
		env, err := c.sess.Run(r.proc, r.args...)
		if isUserAbort(err) {
			continue
		}
		if err != nil {
			return 0, 0, 0, err
		}
		tape = append(tape, pair{wire.Call{Proc: r.proc, Args: r.args, Seq: uint64(i + 1)}, outputsOf(env)})
	}
	if len(tape) == 0 {
		return 0, 0, 0, errors.New("no requests sampled")
	}
	var buf []byte
	var calls, bytes int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < dur {
		for i, p := range tape {
			buf = wire.AppendCall(buf[:0], uint64(i), p.call)
			bytes += int64(len(buf))
			f, _, err := wire.DecodeFrame(buf, 0)
			if err == nil {
				_, err = wire.DecodeCall(f.Payload)
			}
			if err != nil {
				return 0, 0, 0, err
			}
			buf = wire.AppendResult(buf[:0], uint64(i), p.outs)
			bytes += int64(len(buf))
			if f, _, err = wire.DecodeFrame(buf, 0); err == nil {
				_, err = wire.DecodeResult(f.Payload)
			}
			if err != nil {
				return 0, 0, 0, err
			}
		}
		calls += int64(len(tape))
	}
	ns := float64(time.Since(start))
	runtime.ReadMemStats(&m1)
	n := float64(calls)
	return ns / n, float64(bytes) / n, float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// peekProbe times Table.Peek over keys the workload itself asks for:
// the YCSB ring's keys, or the STOCK rows TPC-C NewOrders name.
func peekProbe(e *env, dur time.Duration) (float64, error) {
	var tab *storage.Table
	var keys []storage.Key
	if e.wl.tpcc {
		tab, _ = e.db.Table(tpcc.TabStock)
		g := tpcc.NewGen(e.tcfg, tpcc.StandardMix(), callers) // a generator of its own: no caller's history keys are consumed
		for len(keys) < tapeLen {
			r := g.NewOrder()
			for a := r.Args[6:]; len(a) >= 3; a = a[3:] {
				if item := a[0].Int(); item <= int64(e.tcfg.Items) {
					keys = append(keys, tpcc.StockKey(a[1].Int(), item))
				}
			}
		}
	} else {
		tab, _ = e.db.Table(ycsb.TabUser)
		for _, r := range e.callers[0].tape {
			keys = append(keys, storage.Key(r.args[0].Int()))
		}
	}
	var n, hits int64
	start := time.Now()
	for time.Since(start) < dur {
		for _, k := range keys {
			if _, ok := tab.Peek(k); ok {
				hits++
			}
		}
		n += int64(len(keys))
	}
	ns := float64(time.Since(start))
	if hits != n {
		return 0, fmt.Errorf("%d of %d keys not found", n-hits, n)
	}
	return ns / float64(n), nil
}
