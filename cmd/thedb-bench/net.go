package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"thedb/client"
	"thedb/internal/wire"
	"thedb/internal/workload/ycsb"
)

const (
	netPipeline = 32  // calls per CallBatch
	netTheta    = 0.8 // zipfian skew of the key choice
)

// netOpts carries the -addr, -duration and -net.* flag values for one
// load-generator run.
type netOpts struct {
	addr     string
	clients  int
	conns    int
	mix      string
	records  int
	duration time.Duration
}

// netCounts is what one run saw come back.
type netCounts struct {
	committed, aborted, ambiguous, failed int64
	snapReads                             int64 // committed calls that took the read-only path
	wall                                  time.Duration
	// firstFailure is the error of the first call counted in failed, so
	// a non-zero count says why.
	firstFailure error
}

// netBench drives a YCSB mix against a running thedb-server over the
// wire protocol: each client goroutine pipelines batches of calls and
// the counts separate commits from aborts, ambiguous outcomes and
// failures — shed/draining work is retried by the client library, so
// a shed under this load is not an error.
func netBench(o netOpts) (netCounts, error) {
	mix, ok := map[string]ycsb.Mix{
		"a": ycsb.WorkloadA, "b": ycsb.WorkloadB, "c": ycsb.WorkloadC, "f": ycsb.WorkloadF,
		"snap": ycsb.WorkloadSnap,
	}[o.mix]
	if !ok {
		return netCounts{}, fmt.Errorf("unknown -net.mix %q (want a, b, c, f or snap)", o.mix)
	}
	cl, err := client.Dial(o.addr, client.Options{Conns: o.conns})
	if err != nil {
		return netCounts{}, err
	}
	defer func() {
		if cerr := cl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "net bench: closing client:", cerr)
		}
	}()

	var committed, aborted, ambiguous, failed, snapReads atomic.Int64
	var firstFailure atomic.Pointer[error]
	fail := func(err error) {
		if failed.Add(1) == 1 {
			firstFailure.Store(&err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := ycsb.NewGen(mix, o.records, netTheta, c)
			batch := make([]client.Invocation, 0, netPipeline)
			for ctx.Err() == nil {
				batch = batch[:0]
				for len(batch) < netPipeline && ctx.Err() == nil {
					proc, args := gen.Next()
					if ycsb.IsReadOnly(proc) {
						// Snapshot long scans go out on the read-only
						// path: no sequence number, no dedup slot, and
						// the server runs them with zero validation.
						_, err := cl.CallSnapshot(ctx, proc, args...)
						switch {
						case err == nil:
							committed.Add(1)
							snapReads.Add(1)
						case outOfTime(err):
						default:
							fail(err)
						}
						continue
					}
					batch = append(batch, client.Invocation{Proc: proc, Args: args})
				}
				if len(batch) == 0 {
					continue
				}
				for _, r := range cl.CallBatch(ctx, batch) {
					switch {
					case r.Err == nil:
						committed.Add(1)
					case outOfTime(r.Err):
						// Clock ran out mid-batch; not a failure.
					case errors.Is(r.Err, client.ErrMaybeCommitted):
						// The ack was lost (say, to a server restart);
						// the outcome is honestly unknown. A real
						// application would reconcile by reading back;
						// the bench just counts it.
						ambiguous.Add(1)
					default:
						var re *wire.RemoteError
						if errors.As(r.Err, &re) && re.Code == wire.CodeAbort {
							aborted.Add(1)
						} else {
							fail(r.Err)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	counts := netCounts{
		committed: committed.Load(), aborted: aborted.Load(), ambiguous: ambiguous.Load(),
		failed: failed.Load(), snapReads: snapReads.Load(), wall: time.Since(start),
	}
	if err := firstFailure.Load(); err != nil {
		counts.firstFailure = *err
	}
	return counts, nil
}

// outOfTime reports an error that only says the run's clock expired:
// locally (the context — which is also what the client reports for a
// call of a batch it never wrote because the clock ran out first, even
// when a lost connection is what stopped the window), or at the
// server, which enforces the same deadline as each call's remaining
// budget.
func outOfTime(err error) bool {
	var re *wire.RemoteError
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.As(err, &re) && re.Code == wire.CodeDeadline
}
