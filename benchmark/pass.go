package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"thedb/internal/metrics"
	"thedb/internal/storage"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
)

// liveSample is one reading of the engine's gauges during a window.
type liveSample struct {
	trackedChains int
	snapshotLag   uint32 // epochs the oldest pinned snapshot trails
	durableLag    uint32 // epochs the durable frontier trails
}

// pass is one set-up → warm-up → measured window → gate → tear-down
// cycle of one workload, traced or not.
type pass struct {
	e      *env
	window time.Duration

	setupS    []float64 // one per set-up repetition
	setupHeap float64   // MiB live after a forced GC at the end of warm-up

	win      *callerStats
	winStart time.Time

	before, after       *metrics.Aggregate // engine counters at the window's edges
	srvBefore, srvAfter metrics.ServerCounters
	mem0, mem1          runtime.MemStats
	heapEnd             float64 // MiB live after a forced GC at the end of the window
	rowsLive            int64

	ckpts         []ckptRun
	gensTruncated int64
	wal0, wal1    walCounts
	syncNS        []int64
	samples       []liveSample
	restart       restartResult
}

// runPass sets the workload up setupReps times (keeping the last),
// warms it, and measures one window.
func runPass(wl *workload, p params, traced bool, setupReps int) (ps *pass, err error) {
	ps = &pass{window: p.window}
	for i := 0; i < setupReps; i++ {
		if ps.e != nil {
			if err := ps.e.teardown(); err != nil {
				return nil, err
			}
			ps.e = nil
		}
		runtime.GC() // the previous repetition's database must not bill this one's allocator
		t0 := time.Now()
		if ps.e, err = setup(wl, p, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ps.setupS = append(ps.setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, ps.e.teardown())
		}
	}()
	e := ps.e
	e.newCallers()

	base := e.db.LiveMetrics()
	warm := e.phase(time.Now(), p.warm)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	ps.setupHeap = float64(m.HeapAlloc) / (1 << 20)

	// Background observers run only where they are the point: the
	// checkpoint driver on the durable workload, the gauge sampler in
	// traced passes.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var ckptErr error
	ps.before = e.db.LiveMetrics()
	if e.srv != nil {
		ps.srvBefore = e.srv.Stats().Snapshot()
	}
	if e.wal != nil {
		ps.wal0 = e.wal.counts()
	}
	gens0 := e.db.CheckpointStats().WALGensRemoved.Load()
	runtime.ReadMemStats(&ps.mem0)
	ps.winStart = time.Now()
	if wl.durable {
		bg.Add(1)
		go func() {
			defer bg.Done()
			ps.ckpts, ckptErr = e.checkpointLoop(ps.winStart, p.ckptEvery, stop)
		}()
	}
	if traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			ps.samples = e.sampleLoop(p.slice/binsPerSlice, stop)
		}()
	}
	ps.win = e.phase(ps.winStart, p.window)
	close(stop)
	bg.Wait()
	runtime.ReadMemStats(&ps.mem1)
	ps.after = e.db.LiveMetrics()
	if e.srv != nil {
		ps.srvAfter = e.srv.Stats().Snapshot()
	}
	if e.wal != nil {
		ps.wal1 = e.wal.counts()
		ps.syncNS = e.wal.syncsSince(ps.wal0)
	}
	ps.gensTruncated = e.db.CheckpointStats().WALGensRemoved.Load() - gens0
	runtime.GC()
	runtime.ReadMemStats(&m)
	ps.heapEnd = float64(m.HeapAlloc) / (1 << 20)
	for _, tab := range e.db.Catalog().Tables() {
		ps.rowsLive += int64(tab.Len())
	}

	switch {
	case ps.win.err != nil:
		return nil, ps.win.err
	case ckptErr != nil:
		return nil, ckptErr
	}
	// Exactly once: every commit a caller saw acknowledged is one engine
	// commit, and the engine made no others.
	if got, want := ps.after.Committed-base.Committed, warm.seen+ps.win.seen; got != want {
		return nil, fmt.Errorf("engine committed %d transactions, callers saw %d commit", got, want)
	}
	return ps, nil
}

// sampleLoop reads the engine's live gauges every period until stop
// closes.
func (e *env) sampleLoop(every time.Duration, stop <-chan struct{}) []liveSample {
	var out []liveSample
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		m := e.db.LiveMetrics()
		s := liveSample{trackedChains: m.MVCCTrackedChains, snapshotLag: m.SnapshotEpochLag}
		if e.wl.durable && m.Epoch > m.DurableEpoch {
			s.durableLag = m.Epoch - m.DurableEpoch
		}
		out = append(out, s)
	}
}

// runN issues n more requests on every caller — the durable workload's
// fixed tail after its final checkpoint.
func (e *env) runN(n int) error {
	errs := make([]error, len(e.callers))
	var wg sync.WaitGroup
	for i, c := range e.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for j := 0; j < n && errs[i] == nil; j++ {
				errs[i] = c.call(context.Background(), tpccRequest(c.gen)).err
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// finish runs the correctness gate on the database's final state and
// tears the pass down. On the durable workload that state is reached
// through a final checkpoint, a fixed tail, a clean close and a timed
// restart, which must reproduce the closed database.
func (ps *pass) finish() (err error) {
	e := ps.e
	defer func() { err = errors.Join(err, e.teardown()) }()
	cat := e.db.Catalog()
	switch {
	case e.wl.durable:
		if _, err := e.checkpointOnce(ps.winStart); err != nil {
			return err
		}
		if err := e.runN(e.p.scale.tail / callers); err != nil {
			return fmt.Errorf("tail: %w", err)
		}
		if err := e.closeDB(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		if err := tpcc.CheckConsistency(cat, e.tcfg); err != nil {
			return err
		}
		if ps.restart, err = e.restart(tpccDigest(cat)); err != nil {
			return err
		}
	case e.wl.tpcc:
		return tpcc.CheckConsistency(cat, e.tcfg)
	default:
		tab, _ := cat.Table(ycsb.TabUser)
		var rows int
		tab.ForEach(func(_ storage.Key, r *storage.Record) bool {
			if r.Visible() {
				rows++
			}
			return true
		})
		if rows != e.p.scale.records {
			return fmt.Errorf("%s holds %d rows, want %d", ycsb.TabUser, rows, e.p.scale.records)
		}
	}
	return nil
}
