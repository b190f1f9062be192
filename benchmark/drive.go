package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/proc"
	"thedb/internal/wire"
	"thedb/internal/workload/tpcc"
)

// binsPerSlice: commits are counted in bins a tenth of a slice wide, so
// that a checkpoint pass shorter than a slice still shows as a dip.
const binsPerSlice = 10

// caller is one closed-loop client: it issues its next request only
// when the previous one has been answered.
type caller struct {
	e *env

	sess *thedb.Session // local workloads
	cl   *client.Client // net workloads

	gen  *tpcc.Gen           // TPC-C: drawn inline
	tape []request           // YCSB: pre-generated ring
	inv  []client.Invocation // the ring as CallBatch input (pipelined workloads)
	pos  int

	ring *spanRing // traced passes only
}

// callerStats is what one caller (or, merged, all callers) observed in
// one phase.
type callerStats struct {
	bins []int64 // commits per bin

	lat  hist             // per unit of work: a call, or a batch when pipelined; snapshot scans are left out
	proc [numClasses]hist // per call, by procedure; empty when pipelined

	attempted, committed, userAborts, failed int64
	wrote                                    int64 // committed transactions that change rows
	scanRows, scanNS                         int64 // rows snapshot scans returned, and the time they took
	callNS, genNS                            int64 // time inside the system / drawing requests (traced passes)

	seen int64 // commits observed from start to return, counted or not
	err  error // first unexpected error or wrong output
}

func (s *callerStats) merge(o *callerStats) {
	for i, c := range o.bins {
		s.bins[i] += c
	}
	s.lat.merge(&o.lat)
	for i := range s.proc {
		s.proc[i].merge(&o.proc[i])
	}
	s.attempted += o.attempted
	s.committed += o.committed
	s.userAborts += o.userAborts
	s.failed += o.failed
	s.wrote += o.wrote
	s.scanRows += o.scanRows
	s.scanNS += o.scanNS
	s.callNS += o.callNS
	s.genNS += o.genNS
	s.seen += o.seen
	if s.err == nil {
		s.err = o.err
	}
}

// outcome is the result of one unit of work.
type outcome struct {
	commits, aborts, fails int64
	wrote                  int64 // commits that change rows
	err                    error
}

func isUserAbort(err error) bool {
	var ab *proc.AbortError
	if errors.As(err, &ab) {
		return true
	}
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeAbort
}

func (o *outcome) settle(r request, err error) {
	switch {
	case err == nil:
		o.commits++
		if r.class.writes() {
			o.wrote++
		}
	case isUserAbort(err):
		o.aborts++
	default:
		o.fails++
		if o.err == nil {
			o.err = fmt.Errorf("%s: %w", r.proc, err)
		}
	}
}

// outputs is what both a local *thedb.Env and a remote *client.Result
// offer for checking a transaction's result.
type outputs interface {
	Has(name string) bool
	Val(name string) thedb.Value
}

// verify checks the outputs the benchmark can predict: a read returns a
// value, and a snapshot scan sees exactly scanRows rows.
func (e *env) verify(r request, out outputs) error {
	switch r.class {
	case clsRead:
		if !out.Has("f0") || out.Val("f0").Str() == "" {
			return fmt.Errorf("%s(%d): empty result", r.proc, r.args[0].Int())
		}
	case clsSnapScan:
		if want := e.scanRows(r); !out.Has("rows") || out.Val("rows").Int() != want {
			return fmt.Errorf("%s(%d,%d): wrong row count, want %d", r.proc, r.args[0].Int(), r.args[1].Int(), want)
		}
	}
	return nil
}

func (c *caller) call(ctx context.Context, r request) (o outcome) {
	var err error
	var out outputs
	switch {
	case c.cl != nil:
		var res *client.Result
		if res, err = c.cl.Call(ctx, r.proc, r.args...); err == nil {
			out = res
		}
	case r.class == clsSnapScan:
		var env *thedb.Env
		if env, err = c.sess.RunSnapshot(r.proc, r.args...); err == nil {
			out = env
		}
	default:
		var env *thedb.Env
		if env, err = c.sess.Run(r.proc, r.args...); err == nil {
			out = env
		}
	}
	o.settle(r, err)
	if err == nil {
		o.err = c.e.verify(r, out)
	}
	return o
}

func (c *caller) callBatch(ctx context.Context, reqs []request, inv []client.Invocation) (o outcome) {
	for i, rep := range c.cl.CallBatch(ctx, inv) {
		o.settle(reqs[i], rep.Err)
		if rep.Err == nil && o.err == nil {
			o.err = c.e.verify(reqs[i], rep.Result)
		}
	}
	return o
}

// scanRows is the row count a snapshot scan must see: the table never
// grows or shrinks, so it is min(count, records-k).
func (e *env) scanRows(r request) int64 {
	k, n := r.args[0].Int(), r.args[1].Int()
	if rest := int64(e.p.scale.records) - k; rest < n {
		return rest
	}
	return n
}

// nextRequest draws the caller's next single request.
func (c *caller) nextRequest() request {
	if c.gen != nil {
		return tpccRequest(c.gen)
	}
	r := c.tape[c.pos]
	c.pos = (c.pos + 1) % len(c.tape)
	return r
}

// run drives the caller's closed loop for dur, counting into st every
// unit of work that completes inside it.
func (c *caller) run(start time.Time, dur time.Duration, st *callerStats) {
	ctx := context.Background()
	binW := int64(c.e.p.slice) / binsPerSlice
	batch := c.e.wl.batch
	for {
		var t0 int64
		if c.ring != nil {
			t0 = int64(time.Since(start))
		}
		var r request // stays zero when pipelining
		var t1 int64
		var o outcome
		if batch > 0 {
			lo := c.pos
			c.pos = (c.pos + batch) % len(c.tape)
			t1 = int64(time.Since(start))
			o = c.callBatch(ctx, c.tape[lo:lo+batch], c.inv[lo:lo+batch])
		} else {
			r = c.nextRequest()
			t1 = int64(time.Since(start))
			o = c.call(ctx, r)
		}
		t2 := int64(time.Since(start))

		st.seen += o.commits
		if st.err == nil {
			st.err = o.err
		}
		if t2 >= int64(dur) {
			return
		}
		st.attempted += o.commits + o.aborts + o.fails
		st.committed += o.commits
		st.userAborts += o.aborts
		st.failed += o.fails
		st.wrote += o.wrote
		st.bins[t2/binW] += o.commits
		st.callNS += t2 - t1
		switch {
		case batch > 0:
			st.lat.record(t2 - t1)
		case r.class == clsSnapScan:
			st.proc[r.class].record(t2 - t1)
			st.scanRows += o.commits * c.e.scanRows(r)
			st.scanNS += t2 - t1
		default:
			st.proc[r.class].record(t2 - t1)
			st.lat.record(t2 - t1)
		}
		if c.ring != nil {
			st.genNS += t1 - t0
			c.trace(t0, t1, t2)
		}
	}
}

// trace records one unit of work as a root txn span with its gen and
// call children; t0..t2 are nanoseconds since the phase began.
func (c *caller) trace(t0, t1, t2 int64) {
	tr := c.e.tr
	off := c.e.phaseOff
	root := tr.id()
	name := "session.run"
	if c.cl != nil {
		name = "client.call"
	}
	c.ring.add(span{ID: root, Txn: root, Name: "txn", Start: off + t0, End: off + t2})
	c.ring.add(span{ID: tr.id(), Parent: root, Txn: root, Name: "gen", Start: off + t0, End: off + t1})
	c.ring.add(span{ID: tr.id(), Parent: root, Txn: root, Name: name, Start: off + t1, End: off + t2})
}

// phase runs every caller from start for dur and returns what they
// observed, merged.
func (e *env) phase(start time.Time, dur time.Duration) *callerStats {
	nbins := int(int64(dur)/(int64(e.p.slice)/binsPerSlice)) + 1
	per := make([]*callerStats, len(e.callers))
	for i := range per {
		per[i] = &callerStats{bins: make([]int64, nbins)}
	}
	e.phaseOff = e.at(start)
	var wg sync.WaitGroup
	for i, c := range e.callers {
		wg.Add(1)
		go func(c *caller, st *callerStats) {
			defer wg.Done()
			c.run(start, dur, st)
		}(c, per[i])
	}
	wg.Wait()
	for _, st := range per[1:] {
		per[0].merge(st)
	}
	return per[0]
}
